#include "replay.hh"

#include <algorithm>
#include <chrono>
#include <map>
#include <numeric>

#include "extraction/cloner.hh"
#include "fault/fault.hh"
#include "fingerprint/cnn.hh"
#include "fingerprint/dataset.hh"
#include "fingerprint/index/embedding.hh"
#include "fingerprint/index/lsh.hh"
#include "gpusim/trace_generator.hh"
#include "sched/sched.hh"
#include "trace/repair.hh"
#include "transformer/task.hh"
#include "util/rng.hh"

namespace campaignbench {

namespace dc = decepticon;

namespace {

/** S1 output of one session, with the spans of its layer calls. */
struct Ingest
{
    dc::gpusim::KernelTrace consensus;
    bool hasTrace = false;
    std::uint64_t taskNanos = 0;
    std::uint64_t generateNanos = 0;
    std::uint64_t corruptNanos = 0;
    std::uint64_t corruptCalls = 0;
    std::uint64_t repairNanos = 0;
    std::uint64_t repairCalls = 0;
};

std::uint64_t
sum(const std::vector<std::uint64_t> &v)
{
    return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}

std::uint64_t
nowNanos()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Re-run level 1's fingerprint step on the traces one identifyBatch
 * call classifies, fanned out the same way, and record it as children
 * of core.identify_batch.
 */
void
probeFingerprint(dc::core::Decepticon &level1,
                 const dc::core::TwoLevelOptions &attack_options,
                 const std::vector<const dc::gpusim::KernelTrace *> &traces,
                 ReplayResult &out)
{
    const std::size_t n = traces.size();
    if (n == 0)
        return;
    if (const dc::fingerprint::FingerprintIndex *index = level1.index()) {
        std::vector<std::uint64_t> embed(n), classify(n), task(n);
        std::vector<dc::fingerprint::IndexLookupStats> stats(n);
        const std::uint64_t t0 = nowNanos();
        dc::sched::parallelFor(n, 1, [&](std::size_t i) {
            const std::uint64_t a = nowNanos();
            const std::vector<float> emb =
                dc::fingerprint::traceEmbedding(*traces[i]);
            const std::uint64_t b = nowNanos();
            index->classify(emb, &stats[i]);
            const std::uint64_t c = nowNanos();
            embed[i] = b - a;
            classify[i] = c - b;
            task[i] = c - a;
        });
        out.ledger.addParallelRegion(
            nowNanos() - t0, sum(task),
            {{"fingerprint.embed", sum(embed)},
             {"fingerprint.index.classify", sum(classify)}},
            {{"fingerprint.embed", n}, {"fingerprint.index.classify", n}},
            false);
        for (const auto &s : stats) {
            out.indexLookups += 1;
            out.shortlistClassesSum += s.shortlistClasses;
            out.indexFallbacks += s.exhaustiveFallback ? 1 : 0;
        }
        return;
    }

    dc::fingerprint::FingerprintCnn &cnn = level1.cnn();
    std::vector<dc::tensor::Tensor> images(n);
    std::vector<std::uint64_t> raster(n);
    std::uint64_t t0 = nowNanos();
    dc::sched::parallelFor(n, 1, [&](std::size_t i) {
        const std::uint64_t a = nowNanos();
        images[i] = dc::fingerprint::fingerprintImage(
            *traces[i], cnn.resolution(),
            attack_options.level1.datasetOptions.cropIrregular);
        raster[i] = nowNanos() - a;
    });
    out.ledger.addParallelRegion(nowNanos() - t0, sum(raster),
                                 {{"fingerprint.rasterize", sum(raster)}},
                                 {{"fingerprint.rasterize", n}}, false);

    std::vector<const dc::tensor::Tensor *> image_ptrs;
    image_ptrs.reserve(n);
    for (const auto &img : images)
        image_ptrs.push_back(&img);
    t0 = nowNanos();
    dc::fingerprint::probabilitiesBatch(cnn, image_ptrs);
    out.ledger.addSpan("fingerprint.cnn", nowNanos() - t0, false);
}

} // anonymous namespace

ReplayResult
replayQueue(dc::core::TwoLevelAttack &attack,
            const dc::core::TwoLevelOptions &attack_options,
            const dc::campaign::CampaignOptions &opts,
            const std::vector<dc::zoo::VictimSessionSpec> &sessions)
{
    ReplayResult out;
    dc::campaign::FingerprintCache cache(opts.cache);

    for (std::size_t batch_start = 0; batch_start < sessions.size();
         batch_start += opts.batchSize) {
        const std::size_t batch_end =
            std::min(batch_start + opts.batchSize, sessions.size());
        const std::size_t batch_n = batch_end - batch_start;
        std::uint64_t t_wall = nowNanos();

        // ---- S1: parallel ingest, one span per layer call.
        std::vector<Ingest> ingest(batch_n);
        const std::uint64_t t_s1 = nowNanos();
        dc::sched::parallelFor(batch_n, 1, [&](std::size_t j) {
            const dc::zoo::VictimSessionSpec &spec =
                sessions[batch_start + j];
            if (spec.blackout)
                return;
            Ingest &in = ingest[j];
            const std::uint64_t t_task = nowNanos();
            dc::util::Rng rng(spec.seed);
            std::uint64_t t = nowNanos();
            const dc::gpusim::TraceGenerator gen(spec.lineage->signature);
            const dc::gpusim::KernelTrace truth =
                gen.generate(spec.lineage->arch, rng.nextU64());
            in.generateNanos = nowNanos() - t;
            if (spec.traceFaultSeverity > 0.0) {
                dc::fault::FaultSpec fs;
                fs.recordDropRate =
                    opts.maxRecordDropRate * spec.traceFaultSeverity;
                fs.recordDuplicateRate = 0.1 * spec.traceFaultSeverity;
                fs.truncateProbability =
                    opts.maxTruncateProbability * spec.traceFaultSeverity;
                fs.seed = spec.seed ^ 0xfa1ee7ULL;
                dc::fault::FaultInjector injector(fs);
                std::vector<dc::gpusim::KernelTrace> captures;
                captures.reserve(spec.captures);
                for (std::size_t c = 0; c < spec.captures; ++c) {
                    t = nowNanos();
                    captures.push_back(
                        injector.corruptTrace(truth, rng.nextU64()));
                    in.corruptNanos += nowNanos() - t;
                    in.corruptCalls += 1;
                }
                t = nowNanos();
                in.consensus = dc::trace::repairTraces(captures);
                in.repairNanos = nowNanos() - t;
                in.repairCalls = 1;
            } else {
                in.consensus = truth;
            }
            in.hasTrace = true;
            in.taskNanos = nowNanos() - t_task;
        });
        {
            std::map<std::string, std::uint64_t> nanos, calls;
            std::uint64_t task = 0;
            for (const Ingest &in : ingest) {
                task += in.taskNanos;
                if (!in.hasTrace)
                    continue;
                nanos["gpusim.generate"] += in.generateNanos;
                calls["gpusim.generate"] += 1;
                nanos["fault.corrupt"] += in.corruptNanos;
                calls["fault.corrupt"] += in.corruptCalls;
                nanos["trace.repair"] += in.repairNanos;
                calls["trace.repair"] += in.repairCalls;
            }
            out.ledger.addParallelRegion(nowNanos() - t_s1, task,
                                         nanos, calls);
        }

        // ---- S2: serial cache consult in queue order.
        std::vector<dc::campaign::CacheLookup> looked(batch_n);
        std::vector<std::size_t> classify;
        for (std::size_t j = 0; j < batch_n; ++j) {
            const auto &spec = sessions[batch_start + j];
            if (!ingest[j].hasTrace)
                continue;
            looked[j] = cache.lookup(dc::campaign::sessionCacheKey(spec),
                                     batch_start + j);
            if (looked[j].outcome != dc::campaign::CacheOutcome::Hit)
                classify.push_back(j);
        }

        // ---- S3: batched level 1 over the misses and stale entries.
        std::vector<const dc::gpusim::KernelTrace *> traces;
        std::vector<std::function<std::vector<bool>()>> hooks;
        for (std::size_t j : classify) {
            const auto &spec = sessions[batch_start + j];
            traces.push_back(&ingest[j].consensus);
            hooks.push_back(opts.useQueryProbes
                                ? dc::core::makeVictimQueryHook(
                                      spec.lineage->vocabProfile)
                                : std::function<std::vector<bool>()>{});
        }
        // The fingerprint re-run is not driver work, so the wall stops
        // around it. Whichever of it and identifyBatch runs second finds
        // the caches the first one warmed; alternating the order per
        // batch cancels that bias over the queue.
        const bool probe_first = (batch_start / opts.batchSize) % 2 == 1;
        auto probe = [&] {
            out.ledger.addDriverWall(nowNanos() - t_wall);
            probeFingerprint(attack.level1(), attack_options, traces, out);
            t_wall = nowNanos();
        };
        if (probe_first)
            probe();
        std::uint64_t t = nowNanos();
        const std::vector<dc::core::IdentificationResult> fresh =
            attack.level1().identifyBatch(traces, hooks);
        out.ledger.addSpan("core.identify_batch", nowNanos() - t);
        out.identifyTraces += traces.size();
        for (const auto &r : fresh)
            out.queryProbeIdentifications += r.usedQueryProbes ? 1 : 0;
        if (!probe_first)
            probe();

        // ---- S4: blackout sessions abstain through the fused path.
        std::vector<dc::core::IdentificationResult> idents(batch_n);
        for (std::size_t j = 0; j < batch_n; ++j) {
            if (!sessions[batch_start + j].blackout)
                continue;
            t = nowNanos();
            idents[j] = attack.level1().identifyFused(
                dc::core::MultiChannelCapture{});
            out.ledger.addSpan("core.identify_fused", nowNanos() - t);
        }
        for (std::size_t k = 0; k < classify.size(); ++k)
            idents[classify[k]] = fresh[k];

        // ---- S5: serial cache update in queue order.
        for (std::size_t j = 0; j < batch_n; ++j) {
            const auto &spec = sessions[batch_start + j];
            if (!ingest[j].hasTrace ||
                looked[j].outcome == dc::campaign::CacheOutcome::Hit)
                continue;
            if (!idents[j].insufficientEvidence &&
                !idents[j].pretrainedName.empty())
                cache.storeIdentity(dc::campaign::sessionCacheKey(spec),
                                    idents[j].pretrainedName,
                                    batch_start + j);
        }

        // ---- S6: serial level 2 and rollup in queue order.
        for (std::size_t j = 0; j < batch_n; ++j) {
            const auto &spec = sessions[batch_start + j];
            dc::core::VictimOutcome vo;
            vo.index = spec.index;
            vo.lineage = spec.lineage->name;
            vo.blackout = spec.blackout;
            const bool cache_hit =
                ingest[j].hasTrace &&
                looked[j].outcome == dc::campaign::CacheOutcome::Hit;
            if (cache_hit) {
                vo.cacheHit = true;
                vo.identifiedParent = looked[j].identity;
            } else if (!idents[j].insufficientEvidence) {
                vo.identifiedParent = idents[j].pretrainedName;
            } else {
                vo.abstained = true;
            }
            vo.identityCorrect =
                !vo.abstained &&
                vo.identifiedParent == spec.lineage->pretrainedName;

            if (opts.runLevel2 && !vo.abstained) {
                const auto *pretrained =
                    attack.candidateWeights(vo.identifiedParent);
                if (cache_hit && looked[j].cloneFresh &&
                    opts.reuseCachedClones) {
                    vo.cloneReused = true;
                } else if (pretrained != nullptr) {
                    const auto *truth =
                        attack.candidateWeights(spec.lineage->name);
                    dc::transformer::TransformerClassifier victim(*truth);
                    victim.resetHead(spec.numClasses, spec.seed ^ 0x4eadULL);
                    const dc::transformer::MarkovTask task(
                        opts.victimConfig.vocab, spec.numClasses,
                        opts.victimConfig.maxSeqLen, opts.seed ^ spec.seed,
                        4.0);
                    const dc::transformer::Dataset query_set =
                        task.sample(opts.querySetSize, spec.seed ^ 0x9e5ULL);
                    t = nowNanos();
                    dc::extraction::CloneResult cloned =
                        dc::extraction::ModelCloner::extract(
                            victim, *pretrained, query_set.examples,
                            opts.cloner);
                    out.ledger.addSpan("extraction.clone",
                                       nowNanos() - t);
                    vo.cloned = cloned.clone != nullptr;
                    vo.agreement = cloned.agreementTrajectory.empty()
                                       ? 0.0
                                       : cloned.agreementTrajectory.back();
                    out.clonesAttempted += 1;
                    out.clonesReachingTarget +=
                        vo.agreement >= opts.cloner.agreementTarget ? 1 : 0;
                    out.layersExtractedSum += cloned.layersExtracted;
                    out.bitsRead += cloned.probeStats.bitsRead;
                    out.victimQueries += cloned.victimQueries;
                    if (vo.cloned && ingest[j].hasTrace)
                        cache.storeClone(dc::campaign::sessionCacheKey(spec),
                                         std::move(cloned.clone),
                                         batch_start + j);
                }
            }

            out.rollup.recordVictim(std::move(vo));
        }
        out.ledger.addDriverWall(nowNanos() - t_wall);
    }
    out.cache = cache.stats();
    return out;
}

bool
sameDecisions(const dc::core::CampaignReport &a,
              const dc::core::CampaignReport &b)
{
    if (a.victims.size() != b.victims.size())
        return false;
    for (std::size_t i = 0; i < a.victims.size(); ++i) {
        const dc::core::VictimOutcome &x = a.victims[i];
        const dc::core::VictimOutcome &y = b.victims[i];
        if (x.identifiedParent != y.identifiedParent ||
            x.cacheHit != y.cacheHit || x.abstained != y.abstained ||
            x.cloned != y.cloned || x.cloneReused != y.cloneReused)
            return false;
    }
    return true;
}

std::string
compareWithReport(const ReplayResult &replay,
                  const dc::core::CampaignReport &report)
{
    if (!sameDecisions(replay.rollup, report))
        return "replay and driver decided a session differently "
               "(identity, cache outcome or clone)";
    if (replay.cache.hits != report.cacheHits ||
        replay.cache.misses != report.cacheMisses ||
        replay.cache.stale != report.cacheStale ||
        replay.cache.evictions != report.cacheEvictions)
        return "replay and driver disagree on cache counters";
    return "";
}

} // namespace campaignbench
