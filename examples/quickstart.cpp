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
 * Steps 2–4 are one core::TwoLevelAttack::execute call over the
 * registered candidate pool; its AttackReport is printed at the end.
 *
 * Build & run:  cmake -B build -G Ninja && cmake --build build &&
 *               ./build/examples/quickstart
 */

#include <iostream>
#include <memory>

#include "core/two_level.hh"
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

    std::cout << "=== Decepticon quickstart ===\n\n";

    // ------------------------------------------------------------------
    // World setup. The candidate pool: pre-trained releases the
    // attacker can download, one of which (unknown to the attacker) is
    // the victim's parent.
    // ------------------------------------------------------------------
    zoo::ModelZoo pool = zoo::ModelZoo::buildDefault(/*seed=*/42,
                                                     /*pretrained=*/6,
                                                     /*finetuned=*/0);
    const zoo::ModelIdentity *parent = pool.pretrained()[2];
    std::cout << "candidate pool: " << pool.pretrained().size()
              << " pre-trained lineages\n";
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
    auto pretrained = std::make_shared<transformer::TransformerClassifier>(
        cfg, parent->weightSeed);
    transformer::MarkovTask pretask(cfg.vocab, 4, cfg.maxSeqLen, 900,
                                    4.0);
    transformer::TrainOptions popts;
    popts.epochs = 4;
    popts.lr = 2e-3f;
    transformer::Trainer::train(*pretrained, pretask.sample(160, 1),
                                popts);

    // The victim: fine-tuned from the parent on a private 2-class task.
    transformer::TransformerClassifier victim(*pretrained);
    victim.resetHead(2, 5);
    transformer::MarkovTask task(cfg.vocab, 2, cfg.maxSeqLen, 901, 4.0);
    transformer::TrainOptions fopts;
    fopts.epochs = 3;
    fopts.lr = 2e-4f;
    fopts.headLrMultiplier = 30.0f;
    transformer::Trainer::fineTune(victim, task.sample(160, 2), fopts);

    // ------------------------------------------------------------------
    // The attacker: every lineage registered with its downloadable
    // weights. Level 1 needs only the identities; level 2 extracts
    // against the identified parent's weights, so the other lineages
    // keep their initial ones.
    // ------------------------------------------------------------------
    core::TwoLevelOptions opts;
    opts.level1.datasetOptions.imagesPerModel = 4;
    opts.level1.datasetOptions.resolution = 32;
    opts.level1.cnnOptions.epochs = 30;
    opts.level1.seed = 7;
    opts.cloner.policy.baseDist = 0.02;
    opts.cloner.policy.significance = 0.0001;
    opts.cloner.policy.maxBitsPerWeight = 8;
    opts.cloner.agreementTarget = 0.99;
    opts.adversarial.maxFlips = 6;
    core::TwoLevelAttack attack(opts);
    for (const zoo::ModelIdentity *candidate : pool.pretrained())
        attack.addCandidate(
            *candidate,
            candidate == parent
                ? pretrained
                : std::make_shared<transformer::TransformerClassifier>(
                      cfg, candidate->weightSeed));

    std::cout << "[level 1] extractor trained over the candidate pool; "
                 "held-out accuracy "
              << attack.prepare() << "\n";
    const gpusim::KernelTrace victim_trace =
        gpusim::TraceGenerator(parent->signature)
            .generate(parent->arch, /*run_seed=*/0x1dbeef);
    std::cout << "[level 1] victim's kernel trace as a fingerprint "
                 "(x = time, y = kernel duration):\n"
              << trace::renderAscii(
                     fingerprint::fingerprintImage(victim_trace, 32),
                     48);

    // Identify, extract, evaluate the clone, attack with it.
    const core::AttackReport report = attack.execute(
        victim, victim_trace,
        core::makeVictimQueryHook(parent->vocabProfile), task.sample(100, 3),
        task.sample(80, 4).examples, task.sample(60, 5).examples);
    const std::size_t full_bits =
        32 * nn::totalParamCount(victim.params());
    std::cout << "\n[attack] " << core::formatReport(report)
              << "bits hammered: "
              << 100.0 * static_cast<double>(report.probe.bitsRead) /
                     static_cast<double>(full_bits)
              << "% of a naive full-weight attack\n\n";

    const bool ok = report.identification.pretrainedName == parent->name &&
                    report.cloneVictimAgreement > 0.9 &&
                    report.adversarial.successRate() > 0.4;

    // The same run as one prose paragraph (toJson() is the
    // machine-readable form). It carries wall times, so it goes to
    // stderr: stdout stays byte-identical across runs (the paper gate
    // digests it).
    std::cerr << "[report] " << report.summaryParagraph() << "\n\n";

    std::cout << (ok ? "Quickstart attack succeeded."
                     : "Quickstart attack underperformed — see output.")
              << "\n";
    obs::flush();
    return ok ? 0 : 1;
}
