/**
 * @file
 * Rowhammer-channel ablation: extraction under DRAM physics. The
 * DeepSteal-style channel that Decepticon builds on is limited by
 * (a) which victim rows have usable aggressor neighbours and (b) the
 * cold/warm cost of targeting rows. This bench sweeps the hammerable
 * row fraction and reports coverage, extraction correctness, and the
 * total hammer-round budget — including the benefit of selective
 * extraction's layer-sequential access pattern, which keeps reads in
 * warm rows.
 */

#include <iostream>

#include "bench/workloads.hh"
#include "extraction/dram.hh"
#include "extraction/selective.hh"
#include "util/table.hh"
#include "zoo/finetune_sim.hh"
#include "zoo/weight_store.hh"

using namespace decepticon;

int
main()
{
    gpusim::ArchParams arch = bench::bertBaseArch();
    const auto pre = zoo::WeightStore::makePretrained(arch, 91, 20000);
    zoo::FineTuneOptions fopts;
    const auto victim = zoo::FineTuneSimulator::fineTune(pre, fopts, 92);

    extraction::ExtractionPolicy policy;
    extraction::SelectiveWeightExtractor extractor(policy);

    util::Table t({"hammerable rows", "weights unreadable",
                   "correct extractions", "bits read",
                   "hammer rounds", "rounds/bit"});
    double correct_full = 0.0, correct_half = 0.0;
    for (double frac : {1.0, 0.9, 0.7, 0.5}) {
        extraction::DramGeometry geom;
        geom.hammerableRowFraction = frac;
        extraction::DramWeightLayout layout(victim, geom, 17);
        extraction::DramBitProbeChannel channel(victim, layout);

        extraction::ExtractionStats stats;
        for (std::size_t l = 0; l < pre.layers.size(); ++l) {
            const auto clone = extractor.extractLayer(
                pre.layers[l].w, channel, l, stats);
            extractor.auditAccuracy(clone, victim.layers[l].w,
                                    pre.layers[l].w, stats);
        }
        const double rpb =
            channel.stats().bitsRead == 0
                ? 0.0
                : static_cast<double>(channel.stats().hammerRounds) /
                      static_cast<double>(channel.stats().bitsRead);
        t.row()
            .cell(frac, 2)
            .cell(stats.unreadableWeights)
            .cell(stats.correctFraction(), 4)
            .cell(channel.stats().bitsRead)
            .cell(channel.stats().hammerRounds)
            .cell(rpb, 1);
        if (frac == 1.0)
            correct_full = stats.correctFraction();
        if (frac == 0.5)
            correct_half = stats.correctFraction();
    }

    util::printBanner(std::cout,
                      "DRAM ablation: extraction vs hammerable-row "
                      "fraction (BERT-base shape)");
    t.printAscii(std::cout);
    std::cout << "\ncorrectness full vs half hammerability: "
              << correct_full << " -> " << correct_half
              << "  (unreachable weights keep the baseline, which is "
                 "usually close — coverage degrades gently)\n"
              << "note: sequential extraction keeps most reads in warm "
                 "rows, so rounds/bit sits near the warm cost.\n";

    // Shape: graceful decay.
    const bool shape_ok = correct_half > correct_full - 0.1 &&
                          correct_full > 0.85;
    return shape_ok ? 0 : 1;
}
