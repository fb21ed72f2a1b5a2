/**
 * @file
 * Quickstart: the complete two-level Decepticon attack in one sitting.
 *
 * The scenario: a service deploys a black-box text classifier that was
 * fine-tuned (transfer-learned) from one of several publicly available
 * pre-trained models. The attacker
 *
 *   1. captures the victim's GPU kernel execution trace (the
 *      architectural-hint side channel),
 *   2. identifies which pre-trained model the victim descends from by
 *      classifying the trace's fingerprint image with a CNN, using
 *      query outputs to break ties,
 *   3. selectively extracts the victim's weights via the rowhammer
 *      bit-probe channel, using the pre-trained weights as a baseline
 *      (Algorithm 1), and
 *   4. uses the resulting clone to craft adversarial inputs that fool
 *      the victim.
 *
 * Build & run:  cmake -B build -G Ninja && cmake --build build &&
 *               ./build/examples/quickstart
 */

#include <iostream>

#include "attack/adversarial.hh"
#include "core/decepticon.hh"
#include "core/run_report.hh"
#include "extraction/cloner.hh"
#include "fingerprint/dataset.hh"
#include "gpusim/trace_generator.hh"
#include "nn/param.hh"
#include "obs/obs.hh"
#include "trace/image.hh"
#include "transformer/trainer.hh"

using namespace decepticon;

int
main()
{
    // Telemetry: set DECEPTICON_OBS=trace:/tmp/run.json,metrics:...
    // to capture the whole attack's spans (flight events, rendered as
    // a Chrome trace at exit) and counters.
    obs::initFromEnv();
    core::AttackRunReport run;
    std::uint64_t phase_start = obs::clock().nowMicros();
    const auto end_phase = [&](const char *name) {
        const std::uint64_t now = obs::clock().nowMicros();
        run.recordPhase(name, now - phase_start);
        phase_start = now;
    };

    std::cout << "=== Decepticon quickstart ===\n\n";

    // ------------------------------------------------------------------
    // World setup. The candidate pool: pre-trained releases the
    // attacker can download, one of which (unknown to him) is the
    // victim's parent.
    // ------------------------------------------------------------------
    zoo::ModelZoo pool = zoo::ModelZoo::buildDefault(/*seed=*/42,
                                                     /*pretrained=*/6,
                                                     /*finetuned=*/12);
    const zoo::ModelIdentity *parent = pool.pretrained()[2];
    std::cout << "candidate pool: " << pool.pretrained().size()
              << " pre-trained lineages, "
              << pool.finetuned().size() << " fine-tuned descendants\n";
    std::cout << "victim's (secret) parent: " << parent->name << "\n\n";

    // The parent's weights: a genuinely trained small transformer.
    transformer::TransformerConfig cfg;
    cfg.vocab = 24;
    cfg.maxSeqLen = 12;
    cfg.hidden = 16;
    cfg.numLayers = 4;
    cfg.numHeads = 2;
    cfg.ffnDim = 32;
    cfg.numClasses = 4;
    transformer::TransformerClassifier pretrained(cfg,
                                                  parent->weightSeed);
    transformer::MarkovTask pretask(cfg.vocab, 4, cfg.maxSeqLen, 900,
                                    4.0);
    transformer::TrainOptions popts;
    popts.epochs = 4;
    popts.lr = 2e-3f;
    transformer::Trainer::train(pretrained, pretask.sample(160, 1),
                                popts);

    // The victim: fine-tuned from the parent on a private 2-class task.
    transformer::TransformerClassifier victim(pretrained);
    victim.resetHead(2, 5);
    transformer::MarkovTask task(cfg.vocab, 2, cfg.maxSeqLen, 901, 4.0);
    const transformer::Dataset dev = task.sample(100, 3);
    transformer::TrainOptions fopts;
    fopts.epochs = 3;
    fopts.lr = 2e-4f;
    fopts.headLrMultiplier = 30.0f;
    transformer::Trainer::fineTune(victim, task.sample(160, 2), fopts);
    const auto victim_eval = transformer::Trainer::evaluate(victim, dev);
    std::cout << "victim deployed; dev accuracy "
              << victim_eval.accuracy << "\n\n";
    end_phase("world_setup");

    // ------------------------------------------------------------------
    // Level 1: identify the pre-trained model.
    // ------------------------------------------------------------------
    std::cout << "[level 1] training the pre-trained model extractor "
                 "over the candidate pool...\n";
    core::DecepticonOptions opts;
    opts.datasetOptions.imagesPerModel = 4;
    opts.datasetOptions.resolution = 32;
    opts.cnnOptions.epochs = 30;
    opts.seed = 7;
    core::Decepticon pipeline(opts);
    const double extractor_acc = pipeline.trainExtractor(pool);
    std::cout << "    extractor held-out accuracy: " << extractor_acc
              << "\n";
    end_phase("train_extractor");

    std::cout << "[level 1] capturing the victim's kernel trace...\n";
    const gpusim::KernelTrace victim_trace =
        gpusim::TraceGenerator(parent->signature)
            .generate(parent->arch, /*run_seed=*/0x1dbeef);
    std::cout << "    victim fingerprint (x = time, y = kernel "
                 "duration):\n"
              << trace::renderAscii(
                     fingerprint::fingerprintImage(victim_trace, 32),
                     48);
    const auto ident = pipeline.identify(
        victim_trace, core::makeVictimQueryHook(parent->vocabProfile));
    std::cout << "    identified pre-trained model: "
              << ident.pretrainedName
              << (ident.usedQueryProbes ? " (query probes used)" : "")
              << "\n    correct: "
              << (ident.pretrainedName == parent->name ? "YES" : "no")
              << "\n\n";
    end_phase("identify");
    run.identification = ident;

    // ------------------------------------------------------------------
    // Level 2: selective weight extraction -> clone.
    // ------------------------------------------------------------------
    std::cout << "[level 2] extracting weights via the bit-probe "
                 "channel...\n";
    extraction::ClonerOptions copts;
    copts.policy.baseDist = 0.02;
    copts.policy.significance = 0.0001;
    copts.policy.maxBitsPerWeight = 8;
    copts.agreementTarget = 0.99;
    auto clone_result = extraction::ModelCloner::extract(
        victim, pretrained, task.sample(80, 4).examples, copts);

    const auto clone_eval =
        transformer::Trainer::evaluate(*clone_result.clone, dev);
    std::vector<int> victim_preds;
    for (const auto &ex : dev.examples)
        victim_preds.push_back(victim.predict(ex.tokens));
    const double matched = transformer::Trainer::agreement(
        clone_eval.predictions, victim_preds);
    const std::size_t full_bits =
        32 * nn::totalParamCount(victim.params());
    std::cout << "    clone accuracy " << clone_eval.accuracy
              << " (victim " << victim_eval.accuracy << ")\n"
              << "    matched predictions: " << matched << "\n"
              << "    bits hammered: " << clone_result.probeStats.bitsRead
              << " / " << full_bits << " ("
              << 100.0 *
                     static_cast<double>(clone_result.probeStats.bitsRead) /
                     static_cast<double>(full_bits)
              << "% of a naive full-weight attack)\n"
              << "    victim prediction-API queries used: "
              << clone_result.victimQueries << "\n\n";
    end_phase("extract");
    run.probe = clone_result.probeStats;
    run.extraction = clone_result.extractionStats;
    run.layersExtracted = clone_result.layersExtracted;
    run.victimQueries = clone_result.victimQueries;

    // ------------------------------------------------------------------
    // White-box attack with the clone.
    // ------------------------------------------------------------------
    std::cout << "[attack] crafting adversarial inputs on the clone...\n";
    attack::AdversarialOptions aopts;
    aopts.maxFlips = 6;
    const auto transfer = attack::evaluateTransfer(
        victim, *clone_result.clone, task.sample(60, 5).examples, aopts);
    std::cout << "    adversarial success rate on the victim: "
              << transfer.successRate() << " (" << transfer.fooled
              << "/" << transfer.eligible << " seeds)\n\n";
    end_phase("adversarial");

    const bool ok = ident.pretrainedName == parent->name &&
                    matched > 0.9 && transfer.successRate() > 0.4;

    // The same run, as the machine-readable report (one paragraph).
    // It carries wall times, so it goes to stderr: stdout stays
    // byte-identical across runs (the paper gate digests it).
    run.victimAccuracy = victim_eval.accuracy;
    run.cloneAccuracy = clone_eval.accuracy;
    run.cloneVictimAgreement = matched;
    run.adversarialSuccess = transfer.successRate();
    run.complete = ok;
    if (obs::metricsEnabled())
        run.toMetrics(obs::metrics());
    std::cerr << "[report] " << run.summaryParagraph() << "\n\n";

    std::cout << (ok ? "Quickstart attack succeeded."
                     : "Quickstart attack underperformed — see output.")
              << "\n";
    obs::flush();
    return ok ? 0 : 1;
}
