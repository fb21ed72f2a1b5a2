/**
 * @file
 * End-to-end integration test: the full two-level Decepticon attack on
 * a small but real victim — level 1 identifies the pre-trained model
 * from the victim's execution trace, level 2 extracts the weights via
 * the bit-probe channel, and the clone powers an adversarial attack
 * that beats a naive substitute.
 */

#include <gtest/gtest.h>

#include "attack/adversarial.hh"
#include "attack/substitute.hh"
#include "core/decepticon.hh"
#include "core/two_level.hh"
#include "extraction/cloner.hh"
#include "gpusim/trace_generator.hh"
#include "obs/obs.hh"
#include "transformer/trainer.hh"

namespace dc = decepticon::core;
namespace dz = decepticon::zoo;
namespace dg = decepticon::gpusim;
namespace de = decepticon::extraction;
namespace da = decepticon::attack;
namespace dtr = decepticon::transformer;
namespace dob = decepticon::obs;

TEST(EndToEnd, TwoLevelAttack)
{
    // ------------------------------------------------------------------
    // World setup: a candidate pool of lineages; the victim descends
    // from lineage 0 and was fine-tuned on a private task.
    // ------------------------------------------------------------------
    dz::ModelZoo zoo = dz::ModelZoo::buildDefault(21, 5, 10);
    const dz::ModelIdentity *victim_lineage = zoo.pretrained()[0];

    dtr::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.maxSeqLen = 8;
    cfg.hidden = 16;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    cfg.ffnDim = 32;
    cfg.numClasses = 4;

    // Each candidate lineage has real (trained) weights the attacker
    // can download; keyed by lineage weight seed.
    dtr::TransformerClassifier pretrained(cfg, victim_lineage->weightSeed);
    dtr::MarkovTask pretask(16, 4, 8, 900, 4.0);
    dtr::TrainOptions popts;
    popts.epochs = 4;
    popts.lr = 2e-3f;
    dtr::Trainer::train(pretrained, pretask.sample(120, 1), popts);

    // The victim: transfer-learned from that pre-trained model.
    dtr::TransformerClassifier victim(pretrained);
    victim.resetHead(2, 5);
    dtr::MarkovTask task(16, 2, 8, 901, 4.0);
    const dtr::Dataset train = task.sample(120, 2);
    const dtr::Dataset dev = task.sample(80, 3);
    dtr::TrainOptions fopts;
    fopts.epochs = 3;
    fopts.lr = 2e-4f;
    fopts.headLrMultiplier = 30.0f;
    dtr::Trainer::fineTune(victim, train, fopts);
    const auto victim_eval = dtr::Trainer::evaluate(victim, dev);
    ASSERT_GT(victim_eval.accuracy, 0.7) << "victim must be usable";

    // ------------------------------------------------------------------
    // Level 1: identify the pre-trained lineage from the victim trace.
    // ------------------------------------------------------------------
    dc::DecepticonOptions opts;
    opts.datasetOptions.imagesPerModel = 4;
    opts.datasetOptions.resolution = 32;
    opts.cnnOptions.epochs = 30;
    opts.seed = 5;
    dc::Decepticon pipeline(opts);
    const double extractor_acc = pipeline.trainExtractor(zoo);
    EXPECT_GT(extractor_acc, 0.5);

    const auto victim_trace =
        dg::TraceGenerator(victim_lineage->signature)
            .generate(victim_lineage->arch, 0xbeef);
    const auto ident = pipeline.identify(
        victim_trace,
        dc::makeVictimQueryHook(victim_lineage->vocabProfile));
    EXPECT_EQ(ident.pretrainedName, victim_lineage->name);

    // ------------------------------------------------------------------
    // Level 2: clone the victim from the identified pre-trained model.
    // ------------------------------------------------------------------
    de::ClonerOptions copts;
    copts.policy.baseDist = 0.01;
    copts.policy.significance = 0.0005;
    copts.policy.maxBitsPerWeight = 4;
    copts.agreementTarget = 0.95;
    auto clone_result = de::ModelCloner::extract(
        victim, pretrained, task.sample(60, 4).examples, copts);
    ASSERT_NE(clone_result.clone, nullptr);

    // Clone quality: prediction agreement and accuracy close to the
    // victim's (paper Fig. 15).
    const auto clone_eval =
        dtr::Trainer::evaluate(*clone_result.clone, dev);
    std::vector<int> vic_preds;
    for (const auto &ex : dev.examples)
        vic_preds.push_back(victim.predict(ex.tokens));
    const double agreement =
        dtr::Trainer::agreement(clone_eval.predictions, vic_preds);
    EXPECT_GT(agreement, 0.8);
    EXPECT_NEAR(clone_eval.accuracy, victim_eval.accuracy, 0.15);

    // ------------------------------------------------------------------
    // White-box attack: adversarial inputs from the clone transfer to
    // the victim better than a prediction-record substitute's.
    // ------------------------------------------------------------------
    const auto seeds = task.sample(40, 6).examples;
    da::AdversarialOptions aopts;
    aopts.maxFlips = 2;
    const auto with_clone = da::evaluateTransfer(
        victim, *clone_result.clone, seeds, aopts);

    dtr::TransformerClassifier random_pre(cfg, 0x123);
    const auto records = da::recordPredictions(
        victim, task.sample(60, 7).examples);
    dtr::TrainOptions sopts;
    sopts.epochs = 2;
    auto substitute = da::buildSubstitute(random_pre, records, sopts, 8);
    const auto with_sub =
        da::evaluateTransfer(victim, *substitute, seeds, aopts);

    EXPECT_GE(with_clone.successRate(), with_sub.successRate());
    EXPECT_GT(with_clone.successRate(), 0.3);
}

TEST(EndToEnd, TwoLevelAttackApi)
{
    // Same scenario as above, but driven through the packaged
    // dc::TwoLevelAttack API.
    dtr::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.maxSeqLen = 8;
    cfg.hidden = 16;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    cfg.ffnDim = 32;
    cfg.numClasses = 4;

    dz::ModelZoo zoo = dz::ModelZoo::buildDefault(31, 4, 0);
    dtr::MarkovTask pretask(16, 4, 8, 950, 4.0);

    dc::TwoLevelOptions opts;
    opts.level1.datasetOptions.imagesPerModel = 4;
    opts.level1.datasetOptions.resolution = 32;
    opts.level1.cnnOptions.epochs = 25;
    opts.level1.seed = 9;
    opts.cloner.policy.baseDist = 0.02;
    opts.cloner.policy.significance = 0.0001;
    opts.cloner.policy.maxBitsPerWeight = 8;
    opts.cloner.agreementTarget = 0.99;
    opts.adversarial.maxFlips = 4;

    dc::TwoLevelAttack attack(opts);
    std::vector<std::shared_ptr<dtr::TransformerClassifier>> weights;
    for (const auto *candidate : zoo.pretrained()) {
        auto model = std::make_shared<dtr::TransformerClassifier>(
            cfg, candidate->weightSeed);
        dtr::TrainOptions popts;
        popts.epochs = 3;
        popts.lr = 2e-3f;
        dtr::Trainer::train(*model, pretask.sample(100, 1), popts);
        weights.push_back(model);
        attack.addCandidate(*candidate, model);
    }
    const double extractor_acc = attack.prepare();
    EXPECT_GT(extractor_acc, 0.4);

    // The victim descends from candidate 1.
    const dz::ModelIdentity *parent = zoo.pretrained()[1];
    dtr::TransformerClassifier victim(*weights[1]);
    victim.resetHead(2, 3);
    dtr::MarkovTask task(16, 2, 8, 951, 4.0);
    dtr::TrainOptions fopts;
    fopts.epochs = 3;
    fopts.lr = 2e-4f;
    fopts.headLrMultiplier = 30.0f;
    dtr::Trainer::fineTune(victim, task.sample(120, 2), fopts);

    const auto trace = dg::TraceGenerator(parent->signature)
                           .generate(parent->arch, 0xfeed);
    const auto report = attack.execute(
        victim, trace, dc::makeVictimQueryHook(parent->vocabProfile),
        task.sample(80, 3), task.sample(60, 4).examples,
        task.sample(40, 5).examples);

    EXPECT_EQ(report.identification.pretrainedName, parent->name);
    ASSERT_TRUE(report.complete);
    ASSERT_NE(report.clone, nullptr);
    EXPECT_GT(report.cloneVictimAgreement, 0.85);
    EXPECT_NEAR(report.cloneAccuracy, report.victimAccuracy,
                0.15);
    EXPECT_GT(report.probe.bitsRead, 0u);
    EXPECT_GT(report.layersExtracted, 0u);

    const std::string text = dc::formatReport(report);
    EXPECT_NE(text.find(parent->name), std::string::npos);
    EXPECT_NE(text.find("adversarial success"), std::string::npos);
}

TEST(EndToEnd, FlightStreamCarriesBothLevelsWithoutDrops)
{
    // One export explains the run: with the flight recorder on, a
    // two-level attack through the resilient prober leaves its level-1
    // and level-2 spans in the canonical stream, and the bounded rings
    // never wrap (no per-bit events crowd the spans out).
    dtr::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.maxSeqLen = 8;
    cfg.hidden = 16;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    cfg.ffnDim = 32;
    cfg.numClasses = 4;

    dz::ModelZoo zoo = dz::ModelZoo::buildDefault(31, 4, 0);
    dc::TwoLevelOptions opts;
    opts.level1.datasetOptions.imagesPerModel = 2;
    opts.level1.datasetOptions.resolution = 32;
    opts.level1.cnnOptions.epochs = 5;
    opts.level1.seed = 9;
    opts.cloner.policy.maxBitsPerWeight = 4;
    opts.cloner.agreementTarget = 1.1; // extract every layer
    decepticon::fault::FaultSpec fspec;
    fspec.probeFlipRate = 1e-3;
    fspec.transientFailureRate = 0.01;
    fspec.seed = 2026;
    opts.cloner.faultSpec = fspec;
    opts.cloner.resilient = true;
    opts.adversarial.maxFlips = 1;

    dc::TwoLevelAttack attack(opts);
    std::vector<std::shared_ptr<dtr::TransformerClassifier>> weights;
    for (const auto *candidate : zoo.pretrained()) {
        weights.push_back(std::make_shared<dtr::TransformerClassifier>(
            cfg, candidate->weightSeed));
        attack.addCandidate(*candidate, weights.back());
    }

    dob::ObsConfig ocfg;
    ocfg.flightMode = dob::FlightMode::On;
    dob::configure(ocfg);
    attack.prepare();

    const dz::ModelIdentity *parent = zoo.pretrained()[1];
    dtr::TransformerClassifier victim(*weights[1]);
    victim.resetHead(2, 3);
    dtr::MarkovTask task(16, 2, 8, 951, 4.0);
    const auto trace = dg::TraceGenerator(parent->signature)
                           .generate(parent->arch, 0xfeed);
    const auto report = attack.execute(
        victim, trace, dc::makeVictimQueryHook(parent->vocabProfile),
        task.sample(20, 3), task.sample(20, 4).examples,
        task.sample(4, 5).examples);
    ASSERT_NE(report.clone, nullptr);
    EXPECT_GT(report.probe.bitsRead, 0u);

    EXPECT_EQ(dob::flightRecorder().dropped(), 0u);
    std::size_t level1 = 0;
    std::size_t clones = 0;
    for (const auto &ev : dob::flightRecorder().canonicalEvents()) {
        if (ev.kind != dob::FlightEventKind::StageExit)
            continue;
        level1 += ev.stage.rfind("level1.", 0) == 0 ? 1 : 0;
        clones += ev.stage == "level2.clone" ? 1 : 0;
    }
    EXPECT_GT(level1, 0u);
    EXPECT_EQ(clones, 1u);
    dob::shutdown();
}
