/**
 * @file
 * Tests of the benchmark's own arithmetic: the failed-session rule,
 * the percentile estimator and its tail support, and the span
 * ledger's residual on pinned span durations. Exits 1 when any check
 * fails.
 */

#include <cmath>
#include <iostream>

#include "ledger.hh"

using namespace campaignbench;
using decepticon::core::CampaignReport;
using decepticon::core::VictimOutcome;

namespace {

int failures = 0;

#define CHECK(cond)                                                        \
    do {                                                                   \
        if (!(cond)) {                                                     \
            std::cerr << __FILE__ << ":" << __LINE__                       \
                      << ": check failed: " #cond "\n";                    \
            ++failures;                                                    \
        }                                                                  \
    } while (0)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

VictimOutcome
victim(bool blackout, bool abstained, bool cloned, bool reused)
{
    VictimOutcome v;
    v.blackout = blackout;
    v.abstained = abstained;
    v.cloned = cloned;
    v.cloneReused = reused;
    v.identifiedParent = abstained ? "" : "parent";
    return v;
}

void
testFailedShare()
{
    // A blackout abstention is the right verdict, never a failure.
    CHECK(!sessionFailed(victim(true, true, false, false), true));
    CHECK(!sessionFailed(victim(true, true, false, false), false));
    // An abstention on a live channel is.
    CHECK(sessionFailed(victim(false, true, false, false), false));
    CHECK(sessionFailed(victim(false, true, false, false), true));
    // With level 2 on, an identified session needs a clone.
    CHECK(sessionFailed(victim(false, false, false, false), true));
    CHECK(!sessionFailed(victim(false, false, true, false), true));
    CHECK(!sessionFailed(victim(false, false, false, true), true));
    // With level 2 off, identifying is enough.
    CHECK(!sessionFailed(victim(false, false, false, false), false));

    CampaignReport r;
    r.recordVictim(victim(true, true, false, false));   // blackout
    r.recordVictim(victim(false, true, false, false));  // failed
    r.recordVictim(victim(false, false, true, false));  // cloned
    r.recordVictim(victim(false, false, false, true));  // reused
    CHECK(failedSessions(r, true) == 1);
    CHECK(near(failedShare(r, true), 0.25));
    CHECK(near(failedShare(CampaignReport{}, true), 0.0));
}

void
testPercentiles()
{
    CHECK(near(percentile({}, 0.5), 0.0));
    CHECK(near(percentile({7.0}, 0.99), 7.0));
    CHECK(near(median({3.0, 1.0, 2.0}), 2.0));
    CHECK(near(median({4.0, 1.0, 2.0, 3.0}), 2.5));
    // 0..100: percentile q is exactly 100 q.
    std::vector<double> ramp;
    for (int i = 0; i <= 100; ++i)
        ramp.push_back(static_cast<double>(100 - i));
    CHECK(near(percentile(ramp, 0.99), 99.0));
    CHECK(near(percentile(ramp, 0.995), 99.5));
    CHECK(near(percentile(ramp, 0.0), 0.0));
    CHECK(near(percentile(ramp, 1.0), 100.0));

    // Tail support: p99 needs 1000-odd samples for ten beyond it.
    CHECK(samplesBeyond(0, 0.99) == 0);
    CHECK(samplesBeyond(101, 0.99) == 1);
    CHECK(samplesBeyond(900, 0.99) == 9);
    CHECK(samplesBeyond(999, 0.99) == 10);
    CHECK(samplesBeyond(1024, 0.99) == 11);
    CHECK(samplesBeyond(20000, 0.99) == 200);
    CHECK(samplesBeyond(1024, 0.99) >= kMinTailSamples);
    CHECK(samplesBeyond(900, 0.99) < kMinTailSamples);
}

void
testResidualOnPinnedSpans()
{
    Ledger lg;

    // A 1000 ns driver segment holding a 300 ns top-level span, a
    // 100 ns child of it, and a 200 ns second top-level span.
    lg.addSpan("core.identify_batch", 300);
    lg.addSpan("fingerprint.cnn", 100, false);
    lg.addSpan("extraction.clone", 200);
    lg.addDriverWall(1000);

    CHECK(lg.driverWallNanos() == 1000);
    CHECK(lg.layer("core.identify_batch").calls == 1);
    CHECK(lg.layer("core.identify_batch").busyNanos == 300);
    CHECK(lg.layer("absent").calls == 0);
    // Children do not count against the residual.
    CHECK(lg.selfNanos() == 500);
    CHECK(near(lg.unattributedPct(), 50.0));

    // A 400 ns parallel region whose tasks summed 800 ns: 600 in one
    // layer, 100 in another, 100 outside any span.
    lg.addParallelRegion(400, 800,
                         {{"gpusim.generate", 600}, {"trace.repair", 100}},
                         {{"gpusim.generate", 8}, {"trace.repair", 2}});
    lg.addDriverWall(400);
    CHECK(lg.layer("gpusim.generate").busyNanos == 300);
    CHECK(lg.layer("gpusim.generate").calls == 8);
    CHECK(lg.layer("trace.repair").busyNanos == 50);
    CHECK(lg.selfNanos() == 500 + 50);
    CHECK(near(lg.unattributedPct(), 100.0 * 550.0 / 1400.0));

    // Layers never push the residual below zero.
    Ledger over;
    over.addDriverWall(10);
    over.addSpan("core.identify_batch", 20);
    CHECK(over.selfNanos() == 0);
    CHECK(near(over.unattributedPct(), 0.0));
    CHECK(near(Ledger{}.unattributedPct(), 0.0));
}

} // anonymous namespace

int
main()
{
    testFailedShare();
    testPercentiles();
    testResidualOnPinnedSpans();
    if (failures != 0) {
        std::cerr << failures << " check(s) failed\n";
        return 1;
    }
    std::cout << "campaignbench_test: all checks passed\n";
    return 0;
}
