/**
 * @file
 * Production-scale zoo bench: train the level-1 identifier over
 * procedural zoos of 64, 512, and 4096 identities and measure the
 * sublinear fingerprint index — lookup latency/throughput, shortlist
 * sizes, and indexed-vs-exhaustive accuracy (the EXPERIMENTS.md
 * zoo-scaling table reads from exactly these rows).
 *
 * The lookup pass runs kLookupTrials times per point; the point's
 * lookup latency is the median trial, exported with the trials'
 * interquartile range (``zooindex.zoo<N>.lookup_us`` and
 * ``.lookup_us_iqr``). The snapshot gauges
 * ``zooindex.zoo<N>.lookups_per_sec`` (from the median) are the gated
 * ones: bench_compare.py fails a candidate whose lookup throughput
 * drops more than the threshold below the committed baseline
 * (higher-is-better direction).
 *
 * Shape checks (exit non-zero on failure):
 *  - every sweep point trains the indexed path (never the CNN);
 *  - mean lookup at 4096 identities <= 4x the 512-identity lookup
 *    (the sublinearity gate — exhaustive scoring scales 8x);
 *  - indexed accuracy within 1 point of exhaustive re-ranking at
 *    every sweep point;
 *  - the shortlist stays a strict minority of the zoo at 512+;
 *  - two independently trained indexes over the same zoo produce
 *    identical shortlists and verdicts (build determinism).
 */

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/decepticon.hh"
#include "fingerprint/index/embedding.hh"
#include "fingerprint/index/lsh.hh"
#include "gpusim/trace_generator.hh"
#include "obs/clock.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "util/stats.hh"
#include "util/table.hh"
#include "zoo/procedural.hh"

using namespace decepticon;

namespace {

constexpr std::size_t kZooSizes[] = {64, 512, 4096};
constexpr std::size_t kQueriesPerPoint = 512;
constexpr std::uint64_t kQuerySeedBase = 0xace5ULL;
/** Timed lookup passes per point; the median one is reported. */
constexpr std::size_t kLookupTrials = 5;

struct Point
{
    std::size_t zooSize = 0;
    double trainMicros = 0.0;
    /** Median over trials of the mean embed + shortlist + re-rank. */
    double lookupMicros = 0.0;
    double lookupIqrMicros = 0.0; ///< q3 - q1 over the trials
    double meanShortlist = 0.0;
    double fallbackRate = 0.0;
    double accuracyIndexed = 0.0;
    double accuracyExhaustive = 0.0;
    std::size_t hashBits = 0;
};

core::DecepticonOptions
attackerOptions()
{
    core::DecepticonOptions opts;
    opts.seed = 4;
    opts.indexZooThreshold = 64; // every sweep point takes the index
    return opts;
}

} // anonymous namespace

int
main()
{
    std::cout << "=== Zoo scaling (sublinear fingerprint index) ===\n";

    obs::MetricsRegistry bench_reg;
    util::Table table({"zoo size", "hash bits", "train ms",
                       "lookup us", "iqr us", "lookups/sec", "shortlist",
                       "fallback", "acc(index)", "acc(exhaust)"});

    bool ok = true;
    std::vector<Point> points;
    for (const std::size_t zoo_size : kZooSizes) {
        zoo::ProceduralZooOptions zopts;
        zopts.identities = zoo_size;
        zopts.families = 32;
        zopts.seed = 7;
        const zoo::ModelZoo pool = zoo::buildProceduralZoo(zopts);

        core::Decepticon level1(attackerOptions());
        const std::uint64_t t0 = obs::clock().nowMicros();
        level1.trainExtractor(pool);
        const std::uint64_t t1 = obs::clock().nowMicros();

        const fingerprint::FingerprintIndex *idx = level1.index();
        if (idx == nullptr) {
            std::cout << "FAIL: zoo " << zoo_size
                      << " trained the exhaustive CNN path instead "
                         "of the index\n";
            ok = false;
            continue;
        }

        Point point;
        point.zooSize = zoo_size;
        point.trainMicros = static_cast<double>(t1 - t0);
        point.hashBits = idx->hashBits();

        // Fresh-seed victim traces cycling the lineages: the query
        // set doubles as the accuracy probe and the timing workload.
        std::vector<gpusim::KernelTrace> queries;
        std::vector<std::size_t> truth;
        queries.reserve(kQueriesPerPoint);
        for (std::size_t q = 0; q < kQueriesPerPoint; ++q) {
            const std::size_t c = q % pool.pretrainedCount();
            const zoo::ModelIdentity &m = pool.pretrainedAt(c);
            queries.push_back(
                gpusim::TraceGenerator(m.signature)
                    .generate(m.arch, kQuerySeedBase + q));
            truth.push_back(c);
        }

        // Timed passes: the full per-victim lookup (embedding +
        // shortlist + exact re-rank + argmax), wall-clocked through
        // the obs shim. Every pass computes the same verdicts and
        // counts; only its time differs.
        const double n = static_cast<double>(queries.size());
        std::size_t correct_indexed = 0, shortlists = 0, fallbacks = 0;
        std::vector<double> trial_micros;
        for (std::size_t trial = 0; trial < kLookupTrials; ++trial) {
            correct_indexed = shortlists = fallbacks = 0;
            const std::uint64_t l0 = obs::clock().nowMicros();
            for (std::size_t q = 0; q < queries.size(); ++q) {
                fingerprint::IndexLookupStats stats;
                const std::vector<float> emb =
                    fingerprint::traceEmbedding(queries[q]);
                if (idx->classify(emb, &stats) == truth[q])
                    ++correct_indexed;
                shortlists += stats.shortlistClasses;
                fallbacks += stats.exhaustiveFallback ? 1 : 0;
            }
            const std::uint64_t l1 = obs::clock().nowMicros();
            trial_micros.push_back(static_cast<double>(l1 - l0) / n);
        }
        point.lookupMicros = util::percentile(trial_micros, 50.0);
        point.lookupIqrMicros = util::percentile(trial_micros, 75.0) -
                                util::percentile(trial_micros, 25.0);
        point.meanShortlist = static_cast<double>(shortlists) / n;
        point.fallbackRate = static_cast<double>(fallbacks) / n;
        point.accuracyIndexed = static_cast<double>(correct_indexed) / n;

        // Exhaustive baseline: identical re-rank over every class —
        // what the indexed path must match to within one point.
        const std::vector<std::size_t> all = idx->allClasses();
        std::size_t correct_exhaustive = 0;
        for (std::size_t q = 0; q < queries.size(); ++q) {
            const std::vector<double> probs = idx->scores(
                fingerprint::traceEmbedding(queries[q]), all);
            std::size_t best = 0;
            for (std::size_t c = 1; c < probs.size(); ++c)
                if (probs[c] > probs[best])
                    best = c;
            if (best == truth[q])
                ++correct_exhaustive;
        }
        point.accuracyExhaustive =
            static_cast<double>(correct_exhaustive) / n;

        const double lookups_per_sec =
            point.lookupMicros > 0.0 ? 1e6 / point.lookupMicros : 0.0;
        table.row()
            .cell(point.zooSize)
            .cell(point.hashBits)
            .cell(point.trainMicros / 1000.0, 1)
            .cell(point.lookupMicros, 2)
            .cell(point.lookupIqrMicros, 2)
            .cell(lookups_per_sec, 0)
            .cell(point.meanShortlist, 1)
            .cell(point.fallbackRate, 3)
            .cell(point.accuracyIndexed, 3)
            .cell(point.accuracyExhaustive, 3);

        const std::string prefix =
            "zooindex.zoo" + std::to_string(zoo_size);
        bench_reg.setGauge(prefix + ".lookups_per_sec",
                           lookups_per_sec);
        bench_reg.setGauge(prefix + ".lookup_us", point.lookupMicros);
        bench_reg.setGauge(prefix + ".lookup_us_iqr",
                           point.lookupIqrMicros);
        bench_reg.setGauge(prefix + ".mean_shortlist_classes",
                           point.meanShortlist);
        bench_reg.setGauge(prefix + ".fallback_rate",
                           point.fallbackRate);
        bench_reg.setGauge(prefix + ".accuracy_indexed",
                           point.accuracyIndexed);
        bench_reg.setGauge(prefix + ".accuracy_exhaustive",
                           point.accuracyExhaustive);
        bench_reg.setGauge(prefix + ".hash_bits",
                           static_cast<double>(point.hashBits));
        bench_reg.setGauge(prefix + ".train_millis",
                           point.trainMicros / 1000.0);

        if (point.accuracyIndexed <
            point.accuracyExhaustive - 0.01) {
            ok = false;
            std::cout << "FAIL: zoo " << zoo_size
                      << ": indexed accuracy "
                      << point.accuracyIndexed
                      << " more than 1pt below exhaustive "
                      << point.accuracyExhaustive << "\n";
        }
        if (zoo_size >= 512 &&
            point.meanShortlist >
                0.5 * static_cast<double>(zoo_size)) {
            ok = false;
            std::cout << "FAIL: zoo " << zoo_size
                      << ": mean shortlist " << point.meanShortlist
                      << " is not a strict minority of the zoo\n";
        }

        // Build determinism: a second independently trained attacker
        // over the same pool must agree shortlist-for-shortlist.
        if (zoo_size == 512) {
            core::Decepticon level1b(attackerOptions());
            level1b.trainExtractor(pool);
            const fingerprint::FingerprintIndex *idxb =
                level1b.index();
            for (std::size_t q = 0; q < 64 && idxb != nullptr; ++q) {
                const std::vector<float> emb =
                    fingerprint::traceEmbedding(queries[q]);
                if (idx->shortlist(emb) != idxb->shortlist(emb) ||
                    idx->classify(emb) != idxb->classify(emb)) {
                    ok = false;
                    std::cout << "FAIL: independently trained "
                                 "indexes disagree on query "
                              << q << "\n";
                    break;
                }
            }
        }
        points.push_back(point);
    }

    // The sublinearity gate: 8x the identities may cost at most 4x
    // the lookup. (Exhaustive re-ranking scales by construction at
    // 8x; the shortlist plus the growing hash width is what keeps
    // the indexed path under the bar.)
    double lookup512 = 0.0, lookup4096 = 0.0;
    for (const Point &p : points) {
        if (p.zooSize == 512)
            lookup512 = p.lookupMicros;
        if (p.zooSize == 4096)
            lookup4096 = p.lookupMicros;
    }
    if (lookup512 > 0.0 && lookup4096 > 0.0) {
        const double ratio = lookup4096 / lookup512;
        bench_reg.setGauge("zooindex.scale_ratio_4096_over_512",
                           ratio);
        if (ratio > 4.0) {
            ok = false;
            std::cout << "FAIL: 4096-identity lookup is " << ratio
                      << "x the 512-identity lookup (gate: 4x)\n";
        }
    } else {
        ok = false;
        std::cout << "FAIL: missing sweep points for the 4096/512 "
                     "scaling gate\n";
    }

    util::printBanner(std::cout,
                      "Indexed identification vs zoo size (512 "
                      "fresh-seed queries per point, median of " +
                          std::to_string(kLookupTrials) +
                          " timed passes)");
    table.printAscii(std::cout);

    {
        std::ofstream out("BENCH_zoo_scale.json");
        bench_reg.exportJson(out);
        out << "\n";
    }
    std::cout << "wrote BENCH_zoo_scale.json\n";
    return ok ? 0 : 1;
}
