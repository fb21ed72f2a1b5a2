/**
 * @file
 * Figure 16 reproduction. Left panel: how much checking selective
 * weight extraction removes — the fraction of weights reusable without
 * any bit read and the fraction of bits excluded from hammering, with
 * the error accounting of Sec. 7.4 (a weight is incorrectly extracted
 * if its actual gap exceeded the expected amount or its sign flipped).
 * Right panel: the task head's share of total model weights across
 * transformer size classes (at most ~0.009%), which is why full-read
 * extraction of the last layer is affordable.
 */

#include <iostream>

#include "bench/workloads.hh"
#include "extraction/bitprobe.hh"
#include "extraction/selective.hh"
#include "util/table.hh"
#include "zoo/finetune_sim.hh"
#include "zoo/weight_store.hh"

using namespace decepticon;

int
main()
{
    // --------------------------------------------------------------
    // Left panel: extraction pruning on a BERT-base-shaped pair.
    // --------------------------------------------------------------
    gpusim::ArchParams arch = bench::bertBaseArch();
    const auto pre = zoo::WeightStore::makePretrained(arch, 16, 20000);
    zoo::FineTuneOptions fopts;
    fopts.headWeights = 64;
    const auto victim = zoo::FineTuneSimulator::fineTune(pre, fopts, 17);

    extraction::BitProbeChannel channel(victim);
    extraction::ExtractionPolicy policy;
    extraction::SelectiveWeightExtractor extractor(policy);

    extraction::ExtractionStats stats;
    for (std::size_t l = 0; l < pre.layers.size(); ++l) {
        const auto clone = extractor.extractLayer(pre.layers[l].w,
                                                  channel, l, stats);
        extractor.auditAccuracy(clone, victim.layers[l].w,
                                pre.layers[l].w, stats);
    }
    // Task head: full 32-bit reads (no baseline exists).
    extractor.extractHead(channel, pre.layers.size(),
                          victim.head.w.size(), stats);

    util::Table left({"metric", "value"});
    left.row().cell("weights (encoder layers)").cell(
        stats.totalWeights - stats.fullWeightsRead);
    left.row().cell("weights reused w/o any read").cell(
        stats.weightsSkipped);
    left.row().cell("weights skipped (fraction)").cell(
        stats.weightsSkippedFraction(), 4);
    left.row().cell("bits excluded (fraction)").cell(
        stats.bitsExcludedFraction(), 4);
    left.row().cell("correct extractions (fraction)").cell(
        stats.correctFraction(), 4);
    left.row().cell("sign flips observed").cell(stats.signFlips);
    left.row().cell("bits read total").cell(channel.stats().bitsRead);

    util::printBanner(std::cout,
                      "Fig. 16 (left): selective extraction pruning, "
                      "BERT-base shape");
    left.printAscii(std::cout);

    // --------------------------------------------------------------
    // Right panel: last-layer weight share per size class.
    // --------------------------------------------------------------
    struct SizeClass
    {
        const char *label;
        std::size_t layers;
        std::size_t hidden;
    };
    const SizeClass sizes[] = {
        {"tiny", 2, 128},   {"mini", 4, 256},    {"small", 4, 512},
        {"medium", 8, 512}, {"base", 12, 768},   {"large", 24, 1024},
        {"xlarge", 24, 2048}, {"xxlarge", 12, 4096},
    };
    util::Table right({"size class", "total weights (analytic)",
                       "head weights", "head share (%)"});
    double worst_share = 0.0;
    for (const auto &s : sizes) {
        gpusim::ArchParams a;
        a.numLayers = s.layers;
        a.hidden = s.hidden;
        a.numClasses = 2;
        const auto ws = zoo::WeightStore::makePretrained(a, 1, 1);
        const double share = 100.0 * ws.headWeightFraction();
        worst_share = std::max(worst_share, share);
        right.row()
            .cell(s.label)
            .cell(ws.analyticTotalWeights())
            .cell(ws.analyticHeadWeights)
            .cell(share, 5);
    }
    util::printBanner(std::cout,
                      "Fig. 16 (right): task-head share of model "
                      "weights per size class");
    right.printAscii(std::cout);
    std::cout << "\nworst head share: " << worst_share
              << "%  (paper: 0.0005%-0.009%)\n";

    const bool shape_ok = stats.weightsSkippedFraction() > 0.75 &&
                          stats.bitsExcludedFraction() > 0.85 &&
                          stats.correctFraction() > 0.85 &&
                          worst_share < 0.05;
    return shape_ok ? 0 : 1;
}
