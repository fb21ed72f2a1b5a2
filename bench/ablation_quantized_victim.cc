/**
 * @file
 * Quantization ablation (paper Sec. 8 "Supporting Quantization and
 * Pruning"): selective weight extraction against victims checkpointed
 * in bfloat16 and float16. bfloat16 keeps float32's 8-bit exponent,
 * so the very same fraction positions are checked; float16's narrower
 * exponent needs the window clamp. The bench reports pruning
 * efficiency and extraction correctness per storage format.
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
    gpusim::ArchParams arch = bench::bertBaseArch();
    const auto pre = zoo::WeightStore::makePretrained(arch, 81, 15000);
    zoo::FineTuneOptions fopts;
    const auto victim_fp32 =
        zoo::FineTuneSimulator::fineTune(pre, fopts, 82);

    struct Format
    {
        const char *label;
        extraction::FloatFormat fmt;
    };
    const Format formats[] = {
        {"float32", extraction::kFloat32},
        {"bfloat16", extraction::kBfloat16},
        {"float16", extraction::kFloat16},
    };

    util::Table t({"victim storage", "weights skipped", "bits excluded",
                   "correct extractions", "bits read"});
    double worst_correct = 1.0;
    for (const auto &f : formats) {
        // The victim's checkpoint is quantized; the attacker's
        // pre-trained baseline stays float32 (he downloaded it).
        const auto victim = extraction::quantizeStore(victim_fp32, f.fmt);
        extraction::BitProbeChannel channel(victim);

        extraction::ExtractionPolicy policy;
        policy.storageFormat = f.fmt;
        // The audit budget must absorb the quantization step of the
        // coarser formats in addition to the fine-tuning gap.
        const double q_step =
            std::ldexp(1.0, -f.fmt.fractionBits) * 0.5;
        policy.errorTolerance = 0.002 + q_step;
        extraction::SelectiveWeightExtractor extractor(policy);

        extraction::ExtractionStats stats;
        for (std::size_t l = 0; l < pre.layers.size(); ++l) {
            const auto clone = extractor.extractLayer(
                pre.layers[l].w, channel, l, stats);
            extractor.auditAccuracy(clone, victim.layers[l].w,
                                    pre.layers[l].w, stats);
        }
        worst_correct = std::min(worst_correct, stats.correctFraction());
        t.row()
            .cell(f.label)
            .cell(stats.weightsSkippedFraction(), 4)
            .cell(stats.bitsExcludedFraction(), 4)
            .cell(stats.correctFraction(), 4)
            .cell(channel.stats().bitsRead);
    }

    util::printBanner(std::cout,
                      "Sec. 8 ablation: selective extraction vs victim "
                      "storage format");
    t.printAscii(std::cout);
    std::cout << "\nworst correct-extraction fraction: " << worst_correct
              << "  (the algorithm ports across formats with only the "
                 "bit-window clamp)\n";
    return worst_correct > 0.8 ? 0 : 1;
}
