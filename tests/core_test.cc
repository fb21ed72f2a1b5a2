/**
 * @file
 * Tests for the level-1 Decepticon pipeline: extractor training,
 * trace-based identification, and query-output disambiguation.
 */

#include <algorithm>
#include <cstddef>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/decepticon.hh"
#include "core/two_level.hh"
#include "gpusim/noise.hh"
#include "gpusim/trace_generator.hh"
#include "obs/clock.hh"
#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "util/rng.hh"

namespace dc = decepticon::core;
namespace dz = decepticon::zoo;
namespace dg = decepticon::gpusim;
namespace dtr = decepticon::transformer;
namespace obs = decepticon::obs;

namespace {

dc::DecepticonOptions
smallOptions()
{
    dc::DecepticonOptions opts;
    opts.datasetOptions.imagesPerModel = 4;
    opts.datasetOptions.resolution = 32;
    opts.cnnOptions.epochs = 30;
    opts.seed = 3;
    return opts;
}

/** Shared trained pipeline over a small candidate pool. */
struct PipelineFixture
{
    dz::ModelZoo zoo;
    dc::Decepticon pipeline;
    double testAccuracy;

    PipelineFixture()
        : zoo(dz::ModelZoo::buildDefault(11, 6, 12)),
          pipeline(smallOptions()),
          testAccuracy(pipeline.trainExtractor(zoo))
    {
    }
};

PipelineFixture &
fixture()
{
    static PipelineFixture fx;
    return fx;
}

dg::KernelTrace
traceOf(const dz::ModelIdentity &m, std::uint64_t seed)
{
    return dg::TraceGenerator(m.signature).generate(m.arch, seed);
}

} // anonymous namespace

TEST(Decepticon, ExtractorLearnsCandidatePool)
{
    EXPECT_GT(fixture().testAccuracy, 0.6);
}

TEST(Decepticon, ClassNamesMatchLineages)
{
    auto &fx = fixture();
    EXPECT_EQ(fx.pipeline.classNames(), fx.zoo.lineageNames());
}

TEST(Decepticon, IdentifiesFineTunedVictims)
{
    auto &fx = fixture();
    const auto finetuned = fx.zoo.finetuned();
    std::size_t correct = 0;
    std::size_t total = 0;
    for (const auto *victim : finetuned) {
        // Fresh run seed: the attacker never saw this exact trace.
        const auto trace = traceOf(*victim, 0xabcdef + total);
        const auto res = fx.pipeline.identify(trace);
        correct += res.pretrainedName == victim->pretrainedName ? 1 : 0;
        ++total;
    }
    EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total),
              0.6);
}

TEST(Decepticon, ReportsTopKCandidates)
{
    auto &fx = fixture();
    const auto *victim = fx.zoo.finetuned().front();
    const auto res = fx.pipeline.identify(traceOf(*victim, 1));
    EXPECT_EQ(res.candidates.size(), 3u);
    EXPECT_GT(res.topProbability, 0.0);
    EXPECT_LE(res.topProbability, 1.0);
}

TEST(Decepticon, QueryProbesDisambiguateVariants)
{
    // Two lineages with identical signatures and architectures but
    // different vocabularies (BERT vs CamemBERT style): architectural
    // hints cannot separate them, queries can.
    dz::ModelZoo zoo;
    dz::ModelIdentity en;
    en.name = "src/bert-twin-en";
    en.family = "BERT";
    en.sizeClass = "base";
    en.arch.numLayers = 12;
    en.arch.hidden = 768;
    en.arch.numHeads = 12;
    en.signature.kernelDialect = 5;
    en.vocabProfile.language = dz::Language::English;
    en.pretrainedName = en.name;
    en.isPretrained = true;

    dz::ModelIdentity fr = en;
    fr.name = "src/bert-twin-fr";
    fr.pretrainedName = fr.name;
    fr.vocabProfile.language = dz::Language::French;
    zoo.add(en);
    zoo.add(fr);

    dc::DecepticonOptions opts = smallOptions();
    opts.cnnOptions.epochs = 15;
    dc::Decepticon pipeline(opts);
    pipeline.trainExtractor(zoo);

    // Victim is the French twin; its trace is indistinguishable.
    const auto trace = traceOf(fr, 99);
    const auto res = pipeline.identify(
        trace, dc::makeVictimQueryHook(fr.vocabProfile));
    EXPECT_TRUE(res.usedQueryProbes);
    EXPECT_EQ(res.pretrainedName, "src/bert-twin-fr");

    const auto res_en = pipeline.identify(
        traceOf(en, 100), dc::makeVictimQueryHook(en.vocabProfile));
    EXPECT_EQ(res_en.pretrainedName, "src/bert-twin-en");
}

TEST(Decepticon, RobustToModerateTimingNoise)
{
    auto &fx = fixture();
    const auto finetuned = fx.zoo.finetuned();
    std::size_t correct = 0, total = 0;
    for (const auto *victim : finetuned) {
        auto trace = traceOf(*victim, 500 + total);
        trace = dg::applyTimingNoise(trace, 16, 20.0, total);
        const auto res = fx.pipeline.identify(trace);
        correct += res.pretrainedName == victim->pretrainedName ? 1 : 0;
        ++total;
    }
    // Paper Fig. 14: accuracy decays slowly under noise.
    EXPECT_GT(static_cast<double>(correct) / static_cast<double>(total),
              0.5);
}

TEST(QueryHook, ReflectsProfile)
{
    dz::VocabularyProfile fr;
    fr.language = dz::Language::French;
    const auto hook = dc::makeVictimQueryHook(fr);
    const auto resp = hook();
    EXPECT_EQ(resp.size(), dz::standardProbeSet().size());
    const auto expected =
        dz::responseVector(fr, dz::standardProbeSet());
    EXPECT_EQ(resp, expected);
}

namespace {

/**
 * FNV-1a digest (util::hashString) of one TwoLevelAttack::execute run
 * under FakeClock: formatReport, toJson() and summaryParagraph(),
 * pinned across commits, with metrics off and on. A change that
 * alters the attack's outcome on purpose updates it and says so in
 * CHANGES.md.
 */
constexpr std::uint64_t kExecuteReportDigest = 0xda23a0a0ad6b528bULL;

/** Gauge names in the global registry's export. */
std::vector<std::string>
globalGaugeNames()
{
    std::ostringstream oss;
    obs::metrics().exportJson(oss);
    obs::json::Value v;
    std::string err;
    EXPECT_TRUE(obs::json::parse(oss.str(), v, &err)) << err;
    std::vector<std::string> names;
    for (const auto &[name, value] : v.find("gauges")->object)
        names.push_back(name);
    return names;
}

dtr::TransformerConfig
tinyVictimConfig()
{
    dtr::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.maxSeqLen = 8;
    cfg.hidden = 8;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    cfg.ffnDim = 16;
    cfg.numClasses = 2;
    return cfg;
}

/** A prepared attack over every pre-trained release in @p zoo, each
 *  registered with tiny weights seeded from its identity. */
std::unique_ptr<dc::TwoLevelAttack>
preparedAttack(const dz::ModelZoo &zoo)
{
    dc::TwoLevelOptions opts;
    opts.level1.datasetOptions.imagesPerModel = 3;
    opts.level1.datasetOptions.resolution = 32;
    opts.level1.cnnOptions.epochs = 15;
    opts.level1.seed = 2;

    auto attack = std::make_unique<dc::TwoLevelAttack>(opts);
    for (const auto *candidate : zoo.pretrained()) {
        attack->addCandidate(
            *candidate, std::make_shared<dtr::TransformerClassifier>(
                            tinyVictimConfig(), candidate->weightSeed));
    }
    EXPECT_GT(attack->prepare(), 0.0);
    return attack;
}

} // anonymous namespace

TEST(TwoLevelAttack, ReportDigestPinnedAcrossCommits)
{
    // The same scenario with metrics off and on: the registry observes
    // the run without moving a byte of its report.
    obs::ObsConfig metrics_on;
    metrics_on.metricsEnabled = true;
    for (const obs::ObsConfig &cfg : {obs::ObsConfig{}, metrics_on}) {
        obs::configure(cfg);
        obs::FakeClock clock;
        obs::setClockForTest(&clock);
        dz::ModelZoo zoo = dz::ModelZoo::buildDefault(51, 3, 0);
        auto attack = preparedAttack(zoo);
        // The determinism test's scenario: a random-weight victim
        // served behind the first pre-trained release's trace.
        const auto *parent = zoo.pretrained()[0];
        dtr::TransformerClassifier victim(tinyVictimConfig(), 9);
        dtr::MarkovTask task(16, 2, 8, 5100, 4.0);
        const auto report = attack->execute(
            victim, traceOf(*parent, 0xfee1),
            dc::makeVictimQueryHook(parent->vocabProfile),
            task.sample(20, 1), task.sample(10, 2).examples,
            task.sample(10, 3).examples);
        // Every number of the run lives in the report or in a flight
        // event: no gauge mirrors a report field or one decision.
        for (const std::string &name : globalGaugeNames()) {
            for (const char *prefix : {"run.", "phase.", "probe.",
                                       "extract.", "reliability.",
                                       "level1."})
                EXPECT_NE(name.rfind(prefix, 0), 0u) << name;
        }
        obs::setClockForTest(nullptr);
        obs::shutdown();
        EXPECT_TRUE(report.complete);

        const std::string text = dc::formatReport(report) + "\n" +
                                 report.toJson() + "\n" +
                                 report.summaryParagraph() + "\n";
        EXPECT_EQ(decepticon::util::hashString(text.c_str()),
                  kExecuteReportDigest)
            << "metrics " << (cfg.metricsEnabled ? "on" : "off") << "\n"
            << text;
    }
}

TEST(TwoLevelAttack, IncompleteWhenIdentifiedModelHasNoWeights)
{
    // Level 2 for a parent whose weights the attacker never
    // registered: cloneVictim hands back no clone, reads no bits and
    // spends no victim queries, and a report without a clone formats
    // as incomplete.
    dz::ModelZoo zoo = dz::ModelZoo::buildDefault(51, 3, 0);
    auto attack = preparedAttack(zoo);
    dtr::TransformerClassifier victim(tinyVictimConfig(), 9);
    dtr::MarkovTask task(16, 2, 8, 5100, 4.0);
    const auto cloned =
        attack->cloneVictim("unknown/lineage", victim,
                            task.sample(10, 2).examples, {});
    EXPECT_EQ(cloned.clone, nullptr);
    EXPECT_EQ(cloned.probeStats.bitsRead, 0u);
    EXPECT_EQ(cloned.victimQueries, 0u);

    dc::AttackReport empty;
    empty.identification.pretrainedName = "unknown/lineage";
    const std::string text = dc::formatReport(empty);
    EXPECT_NE(text.find("incomplete"), std::string::npos);
}
