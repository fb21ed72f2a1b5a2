/**
 * @file
 * Campaign-level test harness: fingerprint-cache semantics (hit /
 * miss / eviction / stale-invalidation), batched level-1 equivalence
 * with the serial path, campaign determinism across lane counts,
 * fault-storm degradation, and rollup correctness against per-victim
 * ground truth.
 */

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/cache.hh"
#include "campaign/campaign.hh"
#include "core/campaign_report.hh"
#include "core/two_level.hh"
#include "gpusim/trace_generator.hh"
#include "obs/clock.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "sched/sched.hh"
#include "transformer/classifier.hh"
#include "util/rng.hh"
#include "zoo/session.hh"
#include "zoo/zoo.hh"

namespace dc = decepticon::core;
namespace dcp = decepticon::campaign;
namespace dg = decepticon::gpusim;
namespace dz = decepticon::zoo;
namespace dtr = decepticon::transformer;
namespace sched = decepticon::sched;
namespace obs = decepticon::obs;

namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

/** Restore the environment-configured global pool on scope exit. */
struct PoolGuard
{
    ~PoolGuard() { sched::setThreads(0); }
};

dtr::TransformerConfig
tinyConfig()
{
    dtr::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.maxSeqLen = 8;
    cfg.hidden = 8;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    cfg.ffnDim = 16;
    cfg.numClasses = 2;
    return cfg;
}

std::shared_ptr<dtr::TransformerClassifier>
tinyModel(std::uint64_t seed)
{
    return std::make_shared<dtr::TransformerClassifier>(tinyConfig(),
                                                        seed);
}

/** A prepared attack over a 4-lineage pool, built once (the CNN
 *  training dominates test wall time) and shared read-only. */
struct Harness
{
    dz::ModelZoo zoo;
    std::unique_ptr<dc::TwoLevelAttack> attack;
};

Harness &
harness()
{
    static Harness h = [] {
        sched::setThreads(1); // train at a fixed lane count
        Harness x;
        x.zoo = dz::ModelZoo::buildDefault(51, 4, 0);
        dc::TwoLevelOptions opts;
        opts.level1.datasetOptions.imagesPerModel = 3;
        opts.level1.datasetOptions.resolution = 32;
        opts.level1.cnnOptions.epochs = 15;
        opts.level1.seed = 2;
        x.attack = std::make_unique<dc::TwoLevelAttack>(opts);
        for (const auto *candidate : x.zoo.pretrained())
            x.attack->addCandidate(*candidate,
                                   tinyModel(candidate->weightSeed));
        x.attack->prepare();
        sched::setThreads(0);
        return x;
    }();
    return h;
}

dcp::CampaignOptions
campaignOptions()
{
    dcp::CampaignOptions opts;
    opts.batchSize = 8;
    opts.querySetSize = 12;
    opts.victimConfig = tinyConfig();
    opts.seed = 7;
    return opts;
}

dz::SessionSamplerOptions
samplerOptions(std::size_t sessions)
{
    dz::SessionSamplerOptions sopts;
    sopts.sessions = sessions;
    sopts.capturesPerVictim = 2;
    sopts.skewPopularity = 0.7;
    return sopts;
}

/** Eight sessions, the first six dark: a batch that abstains on 6
 *  of its 8 level-1 rows. */
std::vector<dz::VictimSessionSpec>
blackoutStorm(const dz::ModelZoo &zoo)
{
    auto sessions = dz::sampleSessions(zoo, samplerOptions(8), 13);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        sessions[i].blackout = i < 6;
        sessions[i].traceFaultSeverity = sessions[i].blackout ? 1.0 : 0.0;
    }
    return sessions;
}

/** A 32-session queue with trace faults at @p severity and 5%
 *  blackouts. */
std::vector<dz::VictimSessionSpec>
faultyQueue(const dz::ModelZoo &zoo, double severity)
{
    dz::SessionSamplerOptions sopts = samplerOptions(32);
    sopts.faultSeverity = severity;
    sopts.blackoutFraction = 0.05;
    return dz::sampleSessions(zoo, sopts, 91);
}

/**
 * FNV-1a digest (util::hashString) of the 16-session CNN campaign
 * report under FakeClock, pinned across commits. A change that alters
 * campaign outcomes on purpose updates it and says so in CHANGES.md.
 */
constexpr std::uint64_t kCnnReportDigest = 0x8bfcee40969b6e88ULL;

} // anonymous namespace

// ---------------------------------------------------------------------
// Cache semantics.
// ---------------------------------------------------------------------

TEST(FingerprintCache, MissThenHitRoundTrip)
{
    dcp::FingerprintCache cache;
    const auto miss = cache.lookup("sig-a", 0);
    EXPECT_EQ(miss.outcome, dcp::CacheOutcome::Miss);
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.storeIdentity("sig-a", "lineage-1", 0);
    const auto hit = cache.lookup("sig-a", 1);
    EXPECT_EQ(hit.outcome, dcp::CacheOutcome::Hit);
    EXPECT_EQ(hit.identity, "lineage-1");
    EXPECT_EQ(hit.clone, nullptr);
    EXPECT_FALSE(hit.cloneFresh);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(FingerprintCache, LruEvictionAtCapacity)
{
    dcp::CacheOptions opts;
    opts.capacity = 2;
    dcp::FingerprintCache cache(opts);
    cache.storeIdentity("sig-a", "l1", 0);
    cache.storeIdentity("sig-b", "l2", 1);
    // Touch sig-a so sig-b becomes the LRU entry.
    EXPECT_EQ(cache.lookup("sig-a", 2).outcome, dcp::CacheOutcome::Hit);
    cache.storeIdentity("sig-c", "l3", 3);

    EXPECT_EQ(cache.size(), 2u);
    EXPECT_EQ(cache.stats().evictions, 1u);
    EXPECT_EQ(cache.lookup("sig-b", 4).outcome, dcp::CacheOutcome::Miss);
    EXPECT_EQ(cache.lookup("sig-a", 4).outcome, dcp::CacheOutcome::Hit);
    EXPECT_EQ(cache.lookup("sig-c", 4).outcome, dcp::CacheOutcome::Hit);
}

TEST(FingerprintCache, StaleIdentityForcesRevalidation)
{
    dcp::CacheOptions opts;
    opts.identityTtl = 10;
    dcp::FingerprintCache cache(opts);
    cache.storeIdentity("sig-a", "l1", 0);

    EXPECT_EQ(cache.lookup("sig-a", 10).outcome, dcp::CacheOutcome::Hit);
    const auto stale = cache.lookup("sig-a", 11);
    EXPECT_EQ(stale.outcome, dcp::CacheOutcome::Stale);
    EXPECT_EQ(stale.identity, "l1") << "stale lookups still report the "
                                       "previous identity for triage";
    EXPECT_EQ(cache.stats().stale, 1u);

    // Revalidation refreshes the clock.
    cache.storeIdentity("sig-a", "l1", 11);
    EXPECT_EQ(cache.lookup("sig-a", 12).outcome, dcp::CacheOutcome::Hit);
}

TEST(FingerprintCache, RevalidationFlipDropsCachedClone)
{
    dcp::FingerprintCache cache;
    cache.storeIdentity("sig-a", "l1", 0);
    cache.storeClone("sig-a", tinyModel(3), 0);
    ASSERT_NE(cache.lookup("sig-a", 1).clone, nullptr);

    // Same identity re-stored: the clone survives.
    cache.storeIdentity("sig-a", "l1", 2);
    EXPECT_NE(cache.lookup("sig-a", 3).clone, nullptr);
    EXPECT_EQ(cache.stats().invalidations, 0u);

    // Identity flip: the clone descends from the wrong parent.
    cache.storeIdentity("sig-a", "l2", 4);
    const auto after = cache.lookup("sig-a", 5);
    EXPECT_EQ(after.outcome, dcp::CacheOutcome::Hit);
    EXPECT_EQ(after.identity, "l2");
    EXPECT_EQ(after.clone, nullptr);
    EXPECT_EQ(cache.stats().invalidations, 1u);
}

TEST(FingerprintCache, CloneExpiresIndependentlyOfIdentity)
{
    dcp::CacheOptions opts;
    opts.identityTtl = 100;
    opts.cloneTtl = 5;
    dcp::FingerprintCache cache(opts);
    cache.storeIdentity("sig-a", "l1", 0);
    cache.storeClone("sig-a", tinyModel(3), 0);

    const auto fresh = cache.lookup("sig-a", 5);
    EXPECT_EQ(fresh.outcome, dcp::CacheOutcome::Hit);
    EXPECT_TRUE(fresh.cloneFresh);
    ASSERT_NE(fresh.clone, nullptr);

    const auto expired = cache.lookup("sig-a", 6);
    EXPECT_EQ(expired.outcome, dcp::CacheOutcome::Hit)
        << "identity outlives the clone";
    EXPECT_FALSE(expired.cloneFresh);
    EXPECT_EQ(expired.clone, nullptr);
}

// ---------------------------------------------------------------------
// Session sampler.
// ---------------------------------------------------------------------

TEST(SessionSampler, DeterministicAndSkewed)
{
    const Harness &h = harness();
    dz::SessionSamplerOptions sopts = samplerOptions(64);
    sopts.skewPopularity = 0.9;
    const auto a = dz::sampleSessions(h.zoo, sopts, 42);
    const auto b = dz::sampleSessions(h.zoo, sopts, 42);
    ASSERT_EQ(a.size(), 64u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].lineage, b[i].lineage);
        EXPECT_EQ(a[i].seed, b[i].seed);
        EXPECT_EQ(a[i].index, i);
    }

    // Heavy skew concentrates sessions on few lineages: the most
    // popular one must clearly dominate a uniform share.
    std::map<std::string, std::size_t> counts;
    for (const auto &s : a)
        ++counts[s.lineage->name];
    std::size_t top = 0;
    for (const auto &kv : counts)
        top = std::max(top, kv.second);
    EXPECT_GT(top, a.size() / 2)
        << "skew=0.9 should make the head lineage dominate";
}

// ---------------------------------------------------------------------
// The abstain verdict on hand-built batches of rows.
// ---------------------------------------------------------------------

namespace {

/** One batch: @p abstained dark rows, @p identified rows that named a
 *  parent through level-1, and @p hits cache-hit rows. */
std::vector<dc::VictimOutcome>
batchRows(std::size_t abstained, std::size_t identified,
          std::size_t hits = 0)
{
    std::vector<dc::VictimOutcome> rows(abstained + identified + hits);
    for (std::size_t i = 0; i < abstained; ++i)
        rows[i].abstained = true;
    for (std::size_t i = abstained + identified; i < rows.size(); ++i)
        rows[i].cacheHit = true;
    return rows;
}

} // anonymous namespace

TEST(JudgeBatch, QuietBelowTheBand)
{
    dc::WatchdogReport verdict;
    dc::judgeBatch(batchRows(1, 7), verdict);
    dc::judgeBatch(batchRows(4, 4), verdict); // 0.5 is not above 0.5
    dc::judgeBatch(batchRows(0, 0, 8), verdict);
    EXPECT_EQ(verdict.batches, 3u);
    EXPECT_TRUE(verdict.healthy());
}

TEST(JudgeBatch, FlagsOverLevelOneRowsOnly)
{
    // 3 of the 4 level-1 rows abstained; the 4 cache hits ran no
    // level-1 and do not dilute the rate to 3/8.
    dc::WatchdogReport verdict;
    dc::judgeBatch(batchRows(3, 1, 4), verdict);
    ASSERT_EQ(verdict.findings.size(), 1u);
    EXPECT_EQ(verdict.findings[0].kind, "abstain_anomaly");
    EXPECT_DOUBLE_EQ(verdict.findings[0].value, 0.75);
    EXPECT_DOUBLE_EQ(verdict.findings[0].threshold, 0.5);
    EXPECT_EQ(verdict.findings[0].message,
              "fusion abstained on 3 of 4 identification(s) (rate 0.75 "
              "> 0.5)");
}

TEST(JudgeBatch, BelowTheFloorIsNotJudged)
{
    dc::WatchdogReport verdict;
    dc::judgeBatch(batchRows(3, 0, 5), verdict);
    EXPECT_EQ(verdict.batches, 1u);
    EXPECT_TRUE(verdict.healthy());
}

TEST(JudgeBatch, FlagsOnceAndRearmsOnRecovery)
{
    dc::WatchdogReport verdict;
    dc::judgeBatch(batchRows(6, 2), verdict);
    dc::judgeBatch(batchRows(8, 0), verdict); // still above: no re-flag
    dc::judgeBatch(batchRows(3, 0), verdict); // below the floor: no
                                              // verdict, no re-arm
    dc::judgeBatch(batchRows(5, 3), verdict);
    EXPECT_EQ(verdict.findings.size(), 1u);

    dc::judgeBatch(batchRows(1, 7), verdict); // recovery re-arms
    dc::judgeBatch(batchRows(7, 1), verdict);
    ASSERT_EQ(verdict.findings.size(), 2u);
    EXPECT_DOUBLE_EQ(verdict.findings[1].value, 0.875);
    EXPECT_EQ(verdict.batches, 6u);
}

// ---------------------------------------------------------------------
// Batched level-1.
// ---------------------------------------------------------------------

TEST(Campaign, IdentifyBatchMatchesSerialIdentify)
{
    PoolGuard guard;
    Harness &h = harness();

    std::vector<dg::KernelTrace> traces;
    std::vector<const dz::ModelIdentity *> victims;
    for (std::size_t i = 0; i < h.zoo.pretrained().size(); ++i) {
        const auto *m = h.zoo.pretrained()[i];
        victims.push_back(m);
        traces.push_back(dg::TraceGenerator(m->signature)
                             .generate(m->arch, 0xabc0 + i));
    }

    sched::setThreads(1);
    std::vector<dc::IdentificationResult> serial;
    for (std::size_t i = 0; i < traces.size(); ++i)
        serial.push_back(h.attack->level1().identify(
            traces[i],
            dc::makeVictimQueryHook(victims[i]->vocabProfile)));

    for (std::size_t threads : kThreadCounts) {
        sched::setThreads(threads);
        std::vector<const dg::KernelTrace *> ptrs;
        std::vector<std::function<std::vector<bool>()>> hooks;
        for (std::size_t i = 0; i < traces.size(); ++i) {
            ptrs.push_back(&traces[i]);
            hooks.push_back(
                dc::makeVictimQueryHook(victims[i]->vocabProfile));
        }
        const auto batch = h.attack->level1().identifyBatch(ptrs, hooks);
        ASSERT_EQ(batch.size(), serial.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(batch[i].pretrainedName, serial[i].pretrainedName);
            EXPECT_EQ(batch[i].topProbability, serial[i].topProbability)
                << "probability must match bit for bit";
            EXPECT_EQ(batch[i].candidates, serial[i].candidates);
            EXPECT_EQ(batch[i].usedQueryProbes,
                      serial[i].usedQueryProbes);
        }
    }
}

// ---------------------------------------------------------------------
// Campaign driver.
// ---------------------------------------------------------------------

TEST(Campaign, RollupMatchesPerVictimGroundTruth)
{
    PoolGuard guard;
    Harness &h = harness();
    sched::setThreads(2);

    const auto sessions =
        dz::sampleSessions(h.zoo, samplerOptions(24), 99);
    dcp::CampaignDriver driver(*h.attack, campaignOptions());
    const auto report = driver.run(sessions);

    ASSERT_EQ(report.sessions, 24u);
    ASSERT_EQ(report.victims.size(), 24u);
    EXPECT_EQ(report.identified + report.abstained, report.sessions);
    EXPECT_EQ(report.timeToClone.total(), 24u);

    // Recount every rollup counter from the per-victim outcomes.
    std::size_t correct = 0, abstained = 0, blackouts = 0, cloned = 0,
                reused = 0, hits = 0;
    for (const auto &v : report.victims) {
        if (v.abstained)
            ++abstained;
        if (v.blackout)
            ++blackouts;
        if (v.cloned)
            ++cloned;
        if (v.cloneReused)
            ++reused;
        if (v.cacheHit)
            ++hits;
        ASSERT_NE(v.lineage, "");
        if (!v.abstained) {
            EXPECT_EQ(v.identityCorrect,
                      v.identifiedParent == v.lineage);
            if (v.identityCorrect)
                ++correct;
        }
    }
    EXPECT_EQ(report.correct, correct);
    EXPECT_EQ(report.abstained, abstained);
    EXPECT_EQ(report.blackouts, blackouts);
    EXPECT_EQ(report.clonesBuilt, cloned);
    EXPECT_EQ(report.cloneReuses, reused);
    EXPECT_EQ(report.cacheHits, hits);

    // Healthy queue, known pool: identification should mostly land.
    EXPECT_EQ(report.abstained, 0u);
    EXPECT_GT(report.identificationAccuracy(), 0.5);
    // Four lineages behind 24 sessions: the cache must carry most of
    // the queue.
    EXPECT_EQ(report.cacheHits + report.cacheMisses + report.cacheStale,
              report.sessions);
    EXPECT_GT(report.cacheHitRate(), 0.5);
    EXPECT_GT(report.cloneReuses, 0u);

    // The JSON view embeds the same victims array.
    const std::string json = report.toJson();
    EXPECT_NE(json.find("\"sessions\":24"), std::string::npos);
    EXPECT_NE(json.find("\"victims\":["), std::string::npos);
}

TEST(Campaign, CacheHitsSkipLevelOne)
{
    PoolGuard guard;
    Harness &h = harness();
    sched::setThreads(1);

    obs::ObsConfig cfg;
    cfg.metricsEnabled = true;
    obs::configure(cfg);
    const std::uint64_t identifies_before =
        obs::metrics().counter("level1.identifies");

    const auto sessions =
        dz::sampleSessions(h.zoo, samplerOptions(20), 123);
    dcp::CampaignDriver driver(*h.attack, campaignOptions());
    const auto report = driver.run(sessions);

    const std::uint64_t identifies =
        obs::metrics().counter("level1.identifies") - identifies_before;
    obs::shutdown();

    // Every cache hit skips the classifier: level-1 runs only for
    // misses and stale revalidations (no blackouts in this queue).
    EXPECT_EQ(report.blackouts, 0u);
    EXPECT_EQ(identifies, report.cacheMisses + report.cacheStale);
    EXPECT_GT(report.cacheHits, 0u);
}

TEST(Campaign, ReportByteIdenticalAcrossLanes)
{
    PoolGuard guard;
    Harness &h = harness();

    // Pin wall time: latency attribution is the one legitimately
    // nondeterministic rollup input.
    obs::FakeClock clock;
    obs::setClockForTest(&clock);

    const auto sessions =
        dz::sampleSessions(h.zoo, samplerOptions(16), 77);

    auto run = [&](std::size_t threads) {
        sched::setThreads(threads);
        dcp::CampaignDriver driver(*h.attack, campaignOptions());
        return driver.run(sessions).toJson();
    };

    const std::string reference = run(1);
    EXPECT_FALSE(reference.empty());
    for (std::size_t threads : kThreadCounts)
        EXPECT_EQ(run(threads), reference)
            << "campaign report differs at " << threads << " lanes";

    obs::setClockForTest(nullptr);
}

TEST(Campaign, ReportDigestPinnedAcrossCommits)
{
    PoolGuard guard;
    Harness &h = harness();
    obs::FakeClock clock;
    obs::setClockForTest(&clock);
    sched::setThreads(1);
    dcp::CampaignDriver driver(*h.attack, campaignOptions());
    const std::string json =
        driver.run(dz::sampleSessions(h.zoo, samplerOptions(16), 77))
            .toJson();
    obs::setClockForTest(nullptr);
    EXPECT_EQ(decepticon::util::hashString(json.c_str()),
              kCnnReportDigest)
        << json;
}

TEST(Campaign, LevelTwoGoesThroughCloneVictim)
{
    // S6 clones each session's victim exactly as cloneVictim does on
    // buildSessionVictim's victim: every row's clone flag and
    // agreement match the direct call bit for bit.
    PoolGuard guard;
    Harness &h = harness();
    sched::setThreads(1);
    dcp::CampaignOptions opts = campaignOptions();
    opts.reuseCachedClones = false; // every identified row extracts
    const auto sessions =
        dz::sampleSessions(h.zoo, samplerOptions(4), 77);
    dcp::CampaignDriver driver(*h.attack, opts);
    const auto report = driver.run(sessions);
    ASSERT_EQ(report.victims.size(), sessions.size());

    std::size_t cloned = 0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        const dc::VictimOutcome &row = report.victims[i];
        ASSERT_FALSE(row.abstained);
        dcp::SessionVictim victim =
            dcp::buildSessionVictim(*h.attack, sessions[i], opts);
        const auto direct = h.attack->cloneVictim(
            row.identifiedParent, victim.model,
            victim.querySet.examples, opts.cloner);
        const double agreement =
            direct.agreementTrajectory.empty()
                ? 0.0
                : direct.agreementTrajectory.back();
        EXPECT_EQ(row.cloned, direct.clone != nullptr) << "row " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(row.agreement),
                  std::bit_cast<std::uint64_t>(agreement))
            << "row " << i;
        cloned += row.cloned ? 1 : 0;
    }
    EXPECT_EQ(cloned, sessions.size());
}

TEST(Campaign, BlackoutVictimsAbstainWithoutStallingQueue)
{
    PoolGuard guard;
    Harness &h = harness();
    sched::setThreads(2);

    dz::SessionSamplerOptions sopts = samplerOptions(16);
    sopts.blackoutFraction = 0.4;
    auto sessions = dz::sampleSessions(h.zoo, sopts, 31);
    // Make the storm deterministic regardless of sampler draws: force
    // blackouts onto fixed queue positions.
    std::size_t blackouts = 0;
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        sessions[i].blackout = (i % 3 == 0);
        sessions[i].traceFaultSeverity = sessions[i].blackout ? 1.0 : 0.0;
        if (sessions[i].blackout)
            ++blackouts;
    }

    dcp::CampaignDriver driver(*h.attack, campaignOptions());
    const auto report = driver.run(sessions);

    // Every session got a verdict: the dark victims abstained, the
    // rest of the queue was processed normally.
    EXPECT_EQ(report.sessions, sessions.size());
    EXPECT_EQ(report.victims.size(), sessions.size());
    EXPECT_EQ(report.abstained, blackouts);
    EXPECT_EQ(report.blackouts, blackouts);
    EXPECT_EQ(report.identified, sessions.size() - blackouts);
    for (const auto &v : report.victims) {
        if (v.blackout) {
            EXPECT_TRUE(v.abstained);
            EXPECT_EQ(v.identifiedParent, "");
            EXPECT_FALSE(v.cloned);
        } else {
            EXPECT_FALSE(v.abstained);
        }
    }
}

TEST(Campaign, WatchdogQuietOnHealthyCampaign)
{
    PoolGuard guard;
    Harness &h = harness();
    sched::setThreads(1);

    const auto sessions =
        dz::sampleSessions(h.zoo, samplerOptions(16), 55);
    dcp::CampaignDriver driver(*h.attack, campaignOptions());
    const auto report = driver.run(sessions);

    EXPECT_EQ(report.watchdog.batches, 2u);
    EXPECT_TRUE(report.watchdog.healthy())
        << "healthy campaign must not trip the SLO bands; first "
           "finding: "
        << (report.watchdog.findings.empty()
                ? ""
                : report.watchdog.findings[0].message);
}

TEST(Campaign, FaultStormFlagsAbstainAnomaly)
{
    PoolGuard guard;
    Harness &h = harness();
    sched::setThreads(1);

    // One batch where most victims are dark: the abstained share of
    // the rows that ran level-1 crosses the abstain band (0.5 with
    // >= 4 rows).
    const auto sessions = blackoutStorm(h.zoo);
    dcp::CampaignDriver driver(*h.attack, campaignOptions());
    const auto report = driver.run(sessions);

    ASSERT_EQ(report.watchdog.findings.size(), 1u)
        << "a 6/8 blackout batch must trip the abstain detector once";
    const dc::WatchdogFinding &f = report.watchdog.findings[0];
    EXPECT_EQ(f.kind, "abstain_anomaly");
    EXPECT_EQ(f.subject, "level1.fusion");
    EXPECT_DOUBLE_EQ(f.value, 0.75);
    EXPECT_DOUBLE_EQ(f.threshold, 0.5);
    EXPECT_EQ(f.message,
              "fusion abstained on 6 of 8 identification(s) (rate 0.75 "
              "> 0.5)");
    // The storm still drains the queue.
    EXPECT_EQ(report.sessions, sessions.size());
    EXPECT_EQ(report.abstained, 6u);
}

// Each run judges only its own rows: after a storm, one driver (its
// cache warm) reports a healthy queue healthy, and a second storm is
// flagged again, once.
TEST(Campaign, VerdictRearmsAcrossSequentialRuns)
{
    PoolGuard guard;
    Harness &h = harness();
    sched::setThreads(1);

    const auto storm = blackoutStorm(h.zoo);
    dcp::CampaignDriver driver(*h.attack, campaignOptions());
    EXPECT_EQ(driver.run(storm).watchdog.findings.size(), 1u);

    const auto healthy =
        driver.run(dz::sampleSessions(h.zoo, samplerOptions(16), 55));
    EXPECT_EQ(healthy.watchdog.batches, 2u);
    EXPECT_TRUE(healthy.watchdog.healthy())
        << "the storm's verdict must not leak into the next run";

    // The storm's two lit sessions are cache hits now, so all six
    // level-1 rows abstain.
    const auto again = driver.run(storm);
    ASSERT_EQ(again.watchdog.findings.size(), 1u);
    EXPECT_DOUBLE_EQ(again.watchdog.findings[0].value, 1.0);
}

// Light trace faults leave identification intact, so the verdict is
// healthy: the faults themselves are the injector's ground truth, and
// only their effect on the rows (abstentions) is judged.
TEST(Campaign, LightFaultsReportHealthy)
{
    PoolGuard guard;
    Harness &h = harness();
    sched::setThreads(1);

    const auto report = dcp::CampaignDriver(*h.attack, campaignOptions())
                            .run(faultyQueue(h.zoo, 0.05));
    EXPECT_EQ(report.sessions, 32u);
    EXPECT_EQ(report.watchdog.batches, 4u);
    EXPECT_TRUE(report.watchdog.healthy());
}

// The report is a pure function of the queue: the metrics registry
// and the flight recorder observe a run without moving a byte of it.
TEST(Campaign, ReportIndependentOfTelemetrySettings)
{
    PoolGuard guard;
    Harness &h = harness();
    obs::FakeClock clock;
    obs::setClockForTest(&clock);

    obs::ObsConfig metrics_on;
    metrics_on.metricsEnabled = true;
    obs::ObsConfig flight_on;
    flight_on.flightMode = obs::FlightMode::On;
    const obs::ObsConfig settings[] = {obs::ObsConfig{}, metrics_on,
                                       flight_on};
    const std::vector<std::vector<dz::VictimSessionSpec>> queues = {
        dz::sampleSessions(h.zoo, samplerOptions(16), 77), // CNN pin
        faultyQueue(h.zoo, 0.5)};
    for (const auto &sessions : queues) {
        for (std::size_t threads : kThreadCounts) {
            sched::setThreads(threads);
            std::vector<std::string> json;
            for (const obs::ObsConfig &cfg : settings) {
                obs::configure(cfg);
                dcp::CampaignDriver driver(*h.attack, campaignOptions());
                json.push_back(driver.run(sessions).toJson());
                // The registry holds aggregates only: the one gauge
                // family is CampaignReport::toMetrics's.
                if (cfg.metricsEnabled) {
                    std::ostringstream oss;
                    obs::metrics().exportJson(oss);
                    obs::json::Value v;
                    ASSERT_TRUE(obs::json::parse(oss.str(), v));
                    for (const auto &[name, value] :
                         v.find("gauges")->object)
                        EXPECT_EQ(name.rfind("campaign.", 0), 0u) << name;
                }
                obs::shutdown();
            }
            EXPECT_EQ(json[1], json[0])
                << "metrics on moved the report at " << threads
                << " lanes";
            EXPECT_EQ(json[2], json[0])
                << "flight on moved the report at " << threads
                << " lanes";
        }
    }
    obs::setClockForTest(nullptr);
}

TEST(Campaign, CachePersistsAcrossRuns)
{
    PoolGuard guard;
    Harness &h = harness();
    sched::setThreads(1);

    const auto sessions =
        dz::sampleSessions(h.zoo, samplerOptions(12), 222);
    dcp::CampaignDriver driver(*h.attack, campaignOptions());

    const auto first = driver.run(sessions);
    EXPECT_GT(first.cacheMisses, 0u);

    // Same queue again: every signature is now warm, so the second
    // run's misses vanish and its hit rate beats the first's. Stats
    // in the report are per-run deltas, not lifetime totals.
    const auto second = driver.run(sessions);
    EXPECT_EQ(second.cacheMisses, 0u);
    EXPECT_GT(second.cacheHitRate(), first.cacheHitRate());
    EXPECT_EQ(second.cacheHits + second.cacheStale, second.sessions);
}

// A skewed 240-session queue (popularity skew 0.7, two captures per
// victim, batches of 32) has deterministic outcomes, so the report's
// counts are pinned exactly; its timings are campaignbench's to judge.
TEST(Campaign, SkewedQueueOutcomesPinned)
{
    PoolGuard guard;
    Harness &h = harness();

    const auto sessions =
        dz::sampleSessions(h.zoo, samplerOptions(240), 4246);
    dcp::CampaignOptions opts = campaignOptions();
    opts.batchSize = 32;
    dcp::CampaignDriver driver(*h.attack, opts);
    const auto report = driver.run(sessions);

    EXPECT_EQ(report.sessions, 240u);
    EXPECT_EQ(report.abstained, 0u);
    EXPECT_EQ(report.cacheHits, 208u);
    EXPECT_EQ(report.cacheMisses, 32u);
    EXPECT_EQ(report.clonesBuilt, 32u);
    EXPECT_EQ(report.cloneReuses, 208u);
    EXPECT_EQ(report.correct, 240u);
    EXPECT_EQ(report.watchdog.batches, 8u);
    EXPECT_TRUE(report.watchdog.healthy());
}
