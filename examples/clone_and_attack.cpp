/**
 * @file
 * Deep dive into level 2: selective weight extraction economics. A
 * victim is cloned at several extraction-policy operating points, and
 * for each point the example reports the bit-probe cost, the clone's
 * agreement with the victim, and the adversarial transfer rate —
 * showing the cost/fidelity frontier the attacker navigates (paper
 * Secs. 6.1, 7.3, 7.4, 7.6), plus the quantization note of Sec. 8.
 *
 * Run: ./build/examples/clone_and_attack
 */

#include <iostream>

#include "attack/adversarial.hh"
#include "core/decepticon.hh"
#include "extraction/cloner.hh"
#include "extraction/ieee.hh"
#include "gpusim/trace_generator.hh"
#include "nn/param.hh"
#include "obs/obs.hh"
#include "transformer/trainer.hh"
#include "util/table.hh"

using namespace decepticon;

int
main()
{
    // Telemetry: DECEPTICON_OBS=trace:/tmp/run.json,metrics:/tmp/metrics.json
    // exports a Chrome trace spanning both attack levels (rendered from
    // the flight recorder's event stream, retries as instants) plus a
    // JSON object of every probe/retry/fallback counter below;
    // DECEPTICON_OBS_FLIGHT=on:/tmp/f.jsonl also dumps that stream.
    obs::initFromEnv();

    std::cout << "=== Decepticon: clone-and-attack economics ===\n";

    transformer::TransformerConfig cfg;
    cfg.vocab = 24;
    cfg.maxSeqLen = 12;
    cfg.hidden = 16;
    cfg.numLayers = 4;
    cfg.numHeads = 2;
    cfg.ffnDim = 32;
    cfg.numClasses = 4;

    // Pre-train the public backbone; fine-tune the private victim.
    transformer::TransformerClassifier pretrained(cfg, 77);
    transformer::MarkovTask pretask(cfg.vocab, 4, cfg.maxSeqLen, 770,
                                    4.0);
    transformer::TrainOptions popts;
    popts.epochs = 4;
    popts.lr = 2e-3f;
    transformer::Trainer::train(pretrained, pretask.sample(160, 1),
                                popts);

    transformer::TransformerClassifier victim(pretrained);
    victim.resetHead(2, 5);
    transformer::MarkovTask task(cfg.vocab, 2, cfg.maxSeqLen, 771, 4.0);
    transformer::TrainOptions fopts;
    fopts.epochs = 3;
    fopts.lr = 2e-4f;
    fopts.headLrMultiplier = 30.0f;
    transformer::Trainer::fineTune(victim, task.sample(160, 2), fopts);

    // ------------------------------------------------------------------
    // Level 1 first: identify a victim's pre-trained parent from its
    // kernel trace, so an exported Chrome trace covers both attack
    // levels end to end (train extractor -> identify -> extract).
    // ------------------------------------------------------------------
    {
        auto sp = obs::span("example.level1");
        zoo::ModelZoo pool = zoo::ModelZoo::buildDefault(11, 6, 12);
        core::DecepticonOptions dopts;
        dopts.datasetOptions.imagesPerModel = 4;
        dopts.datasetOptions.resolution = 32;
        dopts.cnnOptions.epochs = 30;
        dopts.seed = 3;
        core::Decepticon pipeline(dopts);
        pipeline.trainExtractor(pool);
        const zoo::ModelIdentity *zvictim = pool.finetuned()[0];
        const auto trace = gpusim::TraceGenerator(zvictim->signature)
                               .generate(zvictim->arch, 0xfeedULL);
        const auto ident = pipeline.identify(trace);
        std::cout << "[level 1] victim parent identified as "
                  << ident.pretrainedName << " (confidence "
                  << ident.topProbability << "; actual "
                  << zvictim->pretrainedName << ")\n";
    }

    auto level2_span = obs::span("example.level2");
    const auto dev = task.sample(120, 3);
    std::vector<int> victim_preds;
    for (const auto &ex : dev.examples)
        victim_preds.push_back(victim.predict(ex.tokens));

    const auto query = task.sample(80, 4).examples;
    const auto seeds = task.sample(60, 5).examples;
    const std::size_t full_bits =
        32 * nn::totalParamCount(victim.params());

    struct OperatingPoint
    {
        const char *label;
        int maxBits;
        double baseDist;
    };
    const OperatingPoint points[] = {
        {"frugal  (2 bits/weight)", 2, 0.01},
        {"default (4 bits/weight)", 4, 0.015},
        {"greedy  (8 bits/weight)", 8, 0.02},
    };

    util::Table t({"policy", "bits read", "% of full attack",
                   "clone agreement", "adv. success"});
    double best_success = 0.0;
    for (const auto &pt : points) {
        extraction::ClonerOptions copts;
        copts.policy.maxBitsPerWeight = pt.maxBits;
        copts.policy.baseDist = pt.baseDist;
        copts.policy.significance = 0.0001;
        copts.agreementTarget = 1.1; // extract everything
        auto result = extraction::ModelCloner::extract(
            victim, pretrained, query, copts);

        std::vector<int> clone_preds;
        for (const auto &ex : dev.examples)
            clone_preds.push_back(result.clone->predict(ex.tokens));
        const double agreement =
            transformer::Trainer::agreement(clone_preds, victim_preds);

        attack::AdversarialOptions aopts;
        aopts.maxFlips = 6;
        const auto transfer = attack::evaluateTransfer(
            victim, *result.clone, seeds, aopts);
        best_success = std::max(best_success, transfer.successRate());

        t.row()
            .cell(pt.label)
            .cell(result.probeStats.bitsRead)
            .cell(100.0 *
                      static_cast<double>(result.probeStats.bitsRead) /
                      static_cast<double>(full_bits),
                  1)
            .cell(agreement, 4)
            .cell(transfer.successRate(), 4);
    }
    util::printBanner(std::cout,
                      "Extraction cost vs clone fidelity vs attack "
                      "power");
    t.printAscii(std::cout);

    // Unreliable channel: DeepSteal-style probe faults on a partially
    // hammerable DRAM, with the resilient prober (voting + retries +
    // baseline fallback) in front of the channel.
    {
        extraction::ClonerOptions copts;
        copts.policy.maxBitsPerWeight = 4;
        copts.policy.baseDist = 0.015;
        copts.policy.significance = 0.0001;
        copts.agreementTarget = 1.1;
        extraction::DramGeometry geom;
        geom.hammerableRowFraction = 0.85; // realistic aggressor reach
        copts.dramGeometry = geom;
        copts.dramSeed = 9;
        fault::FaultSpec fspec;
        fspec.probeFlipRate = 1e-3;
        fspec.transientFailureRate = 0.01;
        fspec.stuckBitRate = 1e-4;
        fspec.seed = 2026;
        copts.faultSpec = fspec;
        copts.resilient = true;
        auto result = extraction::ModelCloner::extract(
            victim, pretrained, query, copts);

        std::vector<int> clone_preds;
        for (const auto &ex : dev.examples)
            clone_preds.push_back(result.clone->predict(ex.tokens));
        const double agreement =
            transformer::Trainer::agreement(clone_preds, victim_preds);

        const auto &es = result.extractionStats;
        util::printBanner(std::cout,
                          "Unreliable channel (15% rows unreachable, "
                          "noisy probes)");
        std::cout << "clone agreement          " << agreement << "\n"
                  << "unreadable weights       " << es.unreadableWeights
                  << "\nbaseline fallbacks       "
                  << es.baselineFallbackWeights
                  << "\nexhausted bits           "
                  << result.reliability.exhaustedBits
                  << "\nread amplification       "
                  << result.reliability.amplification() << "x\n"
                  << "injected flips/failures  "
                  << result.faultCounters.bitFlips << "/"
                  << result.faultCounters.probeFailures << "\n";

        // Graceful degradation contract: every weight the channel
        // cannot reach is resolved from the pre-trained baseline,
        // never silently dropped.
        if (es.unreadableWeights == 0 ||
            es.baselineFallbackWeights < es.unreadableWeights) {
            std::cout << "FAIL: unreadable weights not resolved via "
                         "baseline fallback\n";
            obs::flush();
            return 1;
        }
    }
    level2_span.end();

    // Quantization note (Sec. 8): the checked fraction bits survive a
    // bfloat16 round trip because bfloat16 keeps float32's exponent.
    const float w = 0.018f;
    const float bf = extraction::quantizeTo(w, extraction::kBfloat16);
    std::cout << "\nbfloat16 check: 0.018 -> " << bf
              << " (same exponent field: "
              << (extraction::unbiasedExponent(w) ==
                          extraction::unbiasedExponent(bf)
                      ? "yes"
                      : "no")
              << ")\n";

    obs::flush();
    return best_success > 0.4 ? 0 : 1;
}
