#include "campaign/campaign.hh"

#include <cassert>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "fault/fault.hh"
#include "gpusim/trace_generator.hh"
#include "obs/obs.hh"
#include "sched/sched.hh"
#include "trace/repair.hh"
#include "util/rng.hh"

namespace decepticon::campaign {

std::string
sessionCacheKey(const zoo::VictimSessionSpec &spec)
{
    assert(spec.lineage != nullptr);
    return spec.lineage->signature.toString() + "/L" +
           std::to_string(spec.lineage->arch.numLayers) + "x" +
           std::to_string(spec.lineage->arch.hidden);
}

SessionVictim
buildSessionVictim(const core::TwoLevelAttack &attack,
                   const zoo::VictimSessionSpec &spec,
                   const CampaignOptions &opts)
{
    const transformer::TransformerClassifier *truth =
        attack.candidateWeights(spec.lineage->name);
    assert(truth != nullptr && "queue lineages come from the pool");
    const transformer::MarkovTask task(
        opts.victimConfig.vocab, spec.numClasses,
        opts.victimConfig.maxSeqLen, opts.seed ^ spec.seed, 4.0);
    SessionVictim victim{
        transformer::TransformerClassifier(*truth),
        task.sample(opts.querySetSize, spec.seed ^ 0x9e5ULL)};
    victim.model.resetHead(spec.numClasses, spec.seed ^ 0x4eadULL);
    return victim;
}

namespace {

/** S1 output: one session's repaired consensus trace. */
struct Ingest
{
    gpusim::KernelTrace consensus;
    bool hasTrace = false;
    /** sessionCacheKey(spec), set when hasTrace; S2, S5, S6 reuse it. */
    std::string cacheKey;
};

/** One release's trace generator, built by the first S1 job that
 *  needs it and shared by every session of that lineage in the batch. */
struct GeneratorSlot
{
    std::once_flag built;
    std::optional<gpusim::TraceGenerator> gen;
};

} // anonymous namespace

CampaignDriver::CampaignDriver(core::TwoLevelAttack &attack,
                               CampaignOptions opts)
    : attack_(attack), opts_(std::move(opts)), cache_(opts_.cache)
{
    assert(opts_.batchSize > 0);
}

core::CampaignReport
CampaignDriver::run(const std::vector<zoo::VictimSessionSpec> &sessions)
{
    core::CampaignReport report;
    const CacheStats stats_at_start = cache_.stats();

    auto campaign_span = obs::span("campaign.run");

    for (std::size_t batch_start = 0; batch_start < sessions.size();
         batch_start += opts_.batchSize) {
        const std::size_t batch_end = std::min(
            batch_start + opts_.batchSize, sessions.size());
        const std::size_t batch_n = batch_end - batch_start;
        const std::uint64_t t_batch = obs::clock().nowMicros();
        obs::StageTimer batch_timer("campaign_batch");

        // ---- S1: parallel ingest. Trace synthesis, fault corruption
        // and repair are pure per session (all randomness derives from
        // the session seed), so the jobs fill independent slots. A
        // generator depends only on its release, so each distinct
        // lineage in the batch gets one, built once by whichever job
        // reaches it first (DESIGN.md §14 explains why per batch).
        std::map<const zoo::ModelIdentity *, std::size_t> slot_index;
        std::vector<std::size_t> slot_of(batch_n);
        for (std::size_t j = 0; j < batch_n; ++j) {
            slot_of[j] = slot_index
                             .emplace(sessions[batch_start + j].lineage,
                                      slot_index.size())
                             .first->second;
        }
        std::vector<GeneratorSlot> generators(slot_index.size());
        std::vector<Ingest> ingest(batch_n);
        sched::parallelFor(batch_n, 1, [&](std::size_t j) {
            const zoo::VictimSessionSpec &spec =
                sessions[batch_start + j];
            if (spec.blackout)
                return;
            GeneratorSlot &slot = generators[slot_of[j]];
            std::call_once(slot.built, [&] {
                slot.gen.emplace(spec.lineage->signature);
            });
            util::Rng rng(spec.seed);
            gpusim::KernelTrace truth =
                slot.gen->generate(spec.lineage->arch, rng.nextU64());
            if (spec.traceFaultSeverity > 0.0) {
                fault::FaultSpec fs;
                fs.recordDropRate =
                    opts_.maxRecordDropRate * spec.traceFaultSeverity;
                fs.recordDuplicateRate =
                    0.1 * spec.traceFaultSeverity;
                fs.truncateProbability = opts_.maxTruncateProbability *
                                         spec.traceFaultSeverity;
                fs.seed = spec.seed ^ 0xfa1ee7ULL;
                fault::FaultInjector injector(fs);
                std::vector<gpusim::KernelTrace> captures;
                captures.reserve(spec.captures);
                for (std::size_t c = 0; c < spec.captures; ++c)
                    captures.push_back(
                        injector.corruptTrace(truth, rng.nextU64()));
                ingest[j].consensus = trace::repairTraces(captures);
            } else {
                ingest[j].consensus = std::move(truth);
            }
            ingest[j].cacheKey = sessionCacheKey(spec);
            ingest[j].hasTrace = true;
        });

        // ---- S2: serial cache consult in queue order.
        std::vector<CacheLookup> looked(batch_n);
        std::vector<std::size_t> classify; // batch-local indices
        for (std::size_t j = 0; j < batch_n; ++j) {
            if (!ingest[j].hasTrace)
                continue; // nothing captured, nothing to look up
            looked[j] = cache_.lookup(ingest[j].cacheKey,
                                      cacheClock_ + batch_start + j);
            if (looked[j].outcome != CacheOutcome::Hit)
                classify.push_back(j);
        }

        // ---- S3: batched level-1 over the misses and stale entries.
        std::vector<const gpusim::KernelTrace *> traces;
        std::vector<std::function<std::vector<bool>()>> hooks;
        traces.reserve(classify.size());
        hooks.reserve(classify.size());
        for (std::size_t j : classify) {
            const zoo::VictimSessionSpec &spec =
                sessions[batch_start + j];
            traces.push_back(&ingest[j].consensus);
            hooks.push_back(opts_.useQueryProbes
                                ? core::makeVictimQueryHook(
                                      spec.lineage->vocabProfile)
                                : std::function<std::vector<bool>()>{});
        }
        const std::vector<core::IdentificationResult> fresh =
            attack_.level1().identifyBatch(traces, hooks);

        // ---- S4: blackout sessions abstain through the fused path
        // (honest insufficient-evidence verdict, counted like any
        // other identification attempt).
        std::vector<core::IdentificationResult> idents(batch_n);
        for (std::size_t j = 0; j < batch_n; ++j) {
            const zoo::VictimSessionSpec &spec =
                sessions[batch_start + j];
            if (!spec.blackout)
                continue;
            idents[j] = attack_.level1().identifyFused(
                core::MultiChannelCapture{});
        }
        for (std::size_t k = 0; k < classify.size(); ++k)
            idents[classify[k]] = fresh[k];

        // ---- S5: serial cache update in queue order. A stale entry's
        // revalidation goes through storeIdentity too, which drops the
        // cached clone when the identity flipped.
        for (std::size_t j = 0; j < batch_n; ++j) {
            if (!ingest[j].hasTrace ||
                looked[j].outcome == CacheOutcome::Hit)
                continue;
            if (!idents[j].insufficientEvidence &&
                !idents[j].pretrainedName.empty())
                cache_.storeIdentity(ingest[j].cacheKey,
                                     idents[j].pretrainedName,
                                     cacheClock_ + batch_start + j);
        }

        const std::uint64_t t_classified = obs::clock().nowMicros();
        // Ingest + classification ran batch-wide; amortize their wall
        // time evenly across the batch for per-victim attribution.
        const std::uint64_t shared_micros =
            (t_classified - t_batch) / batch_n;

        // ---- S6: serial level-2 + rollup, queue order (the bit-probe
        // channel is stateful; DESIGN §9 rule 3 keeps it serial). Each
        // victim comes from buildSessionVictim and is cloned through
        // cloneVictim, the call execute() makes.
        for (std::size_t j = 0; j < batch_n; ++j) {
            const zoo::VictimSessionSpec &spec =
                sessions[batch_start + j];
            const std::uint64_t t_session = obs::clock().nowMicros();
            obs::count("campaign.sessions");

            core::VictimOutcome out;
            out.index = spec.index;
            out.lineage = spec.lineage->name;
            out.blackout = spec.blackout;

            const bool cache_hit =
                ingest[j].hasTrace &&
                looked[j].outcome == CacheOutcome::Hit;
            if (cache_hit) {
                out.cacheHit = true;
                out.identifiedParent = looked[j].identity;
            } else if (!idents[j].insufficientEvidence) {
                out.identifiedParent = idents[j].pretrainedName;
            } else {
                out.abstained = true;
            }
            out.identityCorrect =
                !out.abstained &&
                out.identifiedParent == spec.lineage->pretrainedName;

            if (opts_.runLevel2 && !out.abstained) {
                if (cache_hit && looked[j].cloneFresh &&
                    opts_.reuseCachedClones) {
                    out.cloneReused = true;
                } else {
                    SessionVictim victim =
                        buildSessionVictim(attack_, spec, opts_);
                    extraction::CloneResult cloned = attack_.cloneVictim(
                        out.identifiedParent, victim.model,
                        victim.querySet.examples, opts_.cloner);
                    if (cloned.clone != nullptr) {
                        out.cloned = true;
                        out.agreement =
                            cloned.agreementTrajectory.empty()
                                ? 0.0
                                : cloned.agreementTrajectory.back();
                        if (ingest[j].hasTrace)
                            cache_.storeClone(
                                ingest[j].cacheKey,
                                std::move(cloned.clone),
                                cacheClock_ + batch_start + j);
                    }
                }
            }

            out.timeToCloneMicros =
                shared_micros +
                (obs::clock().nowMicros() - t_session);
            obs::observeLatency(
                "campaign.time_to_clone.micros",
                static_cast<double>(out.timeToCloneMicros));
            obs::flightRecord(obs::FlightEventKind::Verdict, "campaign",
                              out.abstained      ? "abstain"
                              : out.cloneReused  ? "clone_reused"
                              : out.cacheHit     ? "cache_hit"
                                                 : "identified",
                              static_cast<double>(spec.index));
            report.recordVictim(std::move(out));
        }

        report.totalMicros += obs::clock().nowMicros() - t_batch;
        core::judgeBatch(
            std::span<const core::VictimOutcome>(report.victims)
                .subspan(batch_start),
            report.watchdog);
    }
    cacheClock_ += sessions.size();

    const CacheStats &stats_now = cache_.stats();
    report.cacheHits = stats_now.hits - stats_at_start.hits;
    report.cacheMisses = stats_now.misses - stats_at_start.misses;
    report.cacheStale = stats_now.stale - stats_at_start.stale;
    report.cacheEvictions =
        stats_now.evictions - stats_at_start.evictions;
    report.cacheInvalidations =
        stats_now.invalidations - stats_at_start.invalidations;
    if (obs::metricsEnabled())
        report.toMetrics(obs::metrics());
    return report;
}

} // namespace decepticon::campaign
