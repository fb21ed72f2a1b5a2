/**
 * @file
 * Parallel-vs-serial equivalence harness: the determinism contract of
 * the sched engine (DESIGN.md §9) says every pipeline result must be
 * BIT-identical at any thread count. Each test runs the same pipeline
 * at DECEPTICON_THREADS equivalents of 1, 2, and 8 lanes via
 * sched::setThreads and compares artifacts byte for byte.
 */

#include <cstring>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/decepticon.hh"
#include "core/two_level.hh"
#include "extraction/bitprobe.hh"
#include "extraction/dram.hh"
#include "extraction/resilient.hh"
#include "extraction/selective.hh"
#include "fault/fault.hh"
#include "obs/flight.hh"
#include "fingerprint/dataset.hh"
#include "gpusim/trace_generator.hh"
#include "obs/clock.hh"
#include "obs/obs.hh"
#include "sched/sched.hh"
#include "transformer/task.hh"
#include "zoo/finetune_sim.hh"
#include "zoo/weight_store.hh"
#include "zoo/zoo.hh"

namespace dc = decepticon::core;
namespace de = decepticon::extraction;
namespace df = decepticon::fingerprint;
namespace dfa = decepticon::fault;
namespace dg = decepticon::gpusim;
namespace dz = decepticon::zoo;
namespace dtr = decepticon::transformer;
namespace sched = decepticon::sched;
namespace obs = decepticon::obs;

namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

/** Restore the environment-configured global pool on scope exit. */
struct PoolGuard
{
    ~PoolGuard() { sched::setThreads(0); }
};

/** Exact float equality that also distinguishes -0.0f and NaN bits. */
bool
sameBits(const std::vector<float> &a, const std::vector<float> &b)
{
    if (a.size() != b.size())
        return false;
    return a.empty() ||
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

bool
sameStats(const de::ExtractionStats &a, const de::ExtractionStats &b)
{
    return a.totalWeights == b.totalWeights &&
           a.weightsSkipped == b.weightsSkipped &&
           a.weightsChecked == b.weightsChecked &&
           a.bitsChecked == b.bitsChecked &&
           a.fullWeightsRead == b.fullWeightsRead &&
           a.unreadableWeights == b.unreadableWeights &&
           a.baselineFallbackWeights == b.baselineFallbackWeights &&
           a.auditedWeights == b.auditedWeights &&
           a.extractionErrors == b.extractionErrors &&
           a.signFlips == b.signFlips;
}

} // anonymous namespace

TEST(Determinism, DatasetGenerationBitIdentical)
{
    PoolGuard guard;
    dz::ModelZoo zoo = dz::ModelZoo::buildDefault(11, 4, 8);
    df::DatasetOptions opts;
    opts.imagesPerModel = 3;
    opts.resolution = 32;
    opts.seed = 5;

    sched::setThreads(1);
    const df::FingerprintDataset reference = df::buildDataset(zoo, opts);
    ASSERT_FALSE(reference.samples.empty());

    for (std::size_t threads : kThreadCounts) {
        sched::setThreads(threads);
        const df::FingerprintDataset ds = df::buildDataset(zoo, opts);
        ASSERT_EQ(ds.samples.size(), reference.samples.size());
        EXPECT_EQ(ds.classNames, reference.classNames);
        for (std::size_t i = 0; i < ds.samples.size(); ++i) {
            EXPECT_EQ(ds.samples[i].label, reference.samples[i].label);
            EXPECT_EQ(ds.samples[i].modelName,
                      reference.samples[i].modelName);
            EXPECT_TRUE(sameBits(ds.samples[i].image.vec(),
                                 reference.samples[i].image.vec()))
                << "image " << i << " differs at " << threads
                << " threads";
        }
    }
}

TEST(Determinism, SelectiveExtractionBitIdentical)
{
    PoolGuard guard;
    dg::ArchParams arch;
    arch.numLayers = 3;
    arch.hidden = 128;
    const dz::WeightStore pre =
        dz::WeightStore::makePretrained(arch, 21, 3000);
    dz::FineTuneOptions ft_opts;
    ft_opts.headWeights = 40;
    const dz::WeightStore victim =
        dz::FineTuneSimulator::fineTune(pre, ft_opts, 22);

    const de::ExtractionPolicy policy;
    const de::SelectiveWeightExtractor extractor(policy);

    // A stateful, noisy channel: the DRAM channel's warm-row cost
    // depends on the previous read (256-byte rows make that bite
    // often), and transient flips come from a fault injector. The
    // serial probe phase must keep both scheduling-independent.
    auto run = [&](std::size_t threads, std::vector<float> &out,
                   de::ExtractionStats &stats, de::ProbeStats &probe) {
        sched::setThreads(threads);
        de::DramGeometry geom;
        geom.rowBytes = 256;
        const de::DramWeightLayout layout(victim, geom, 99);
        de::DramBitProbeChannel channel(victim, layout);
        dfa::FaultSpec spec;
        spec.probeFlipRate = 0.02;
        spec.seed = 99;
        dfa::FaultInjector injector(spec);
        channel.attachFaultInjector(&injector);
        out = extractor.extractLayer(pre.layers[1].w, channel, 1, stats);
        extractor.auditAccuracy(out, victim.layers[1].w, pre.layers[1].w,
                                stats);
        probe = channel.stats();
    };

    std::vector<float> reference;
    de::ExtractionStats reference_stats;
    de::ProbeStats reference_probe;
    run(1, reference, reference_stats, reference_probe);
    ASSERT_GT(reference_stats.totalWeights, 0u);
    // Reads hop between rows, so the cost ledger is order-sensitive.
    ASSERT_GT(reference_probe.hammerRounds,
              de::kRoundsPerBitWarm * reference_probe.bitsRead);

    for (std::size_t threads : kThreadCounts) {
        std::vector<float> out;
        de::ExtractionStats stats;
        de::ProbeStats probe;
        run(threads, out, stats, probe);
        EXPECT_TRUE(sameBits(out, reference))
            << "extracted layer differs at " << threads << " threads";
        EXPECT_TRUE(sameStats(stats, reference_stats))
            << "stats differ at " << threads << " threads";
        EXPECT_EQ(probe.bitsRead, reference_probe.bitsRead)
            << "bits read differ at " << threads << " threads";
        EXPECT_EQ(probe.hammerRounds, reference_probe.hammerRounds)
            << "hammer rounds differ at " << threads << " threads";
    }
}

TEST(Determinism, FlightDumpBitIdenticalAcrossLanes)
{
    PoolGuard guard;

    // Timestamps are part of the canonical sort key; pin them so the
    // only remaining degrees of freedom are scheduling-induced — the
    // exact thing the canonical dump must erase.
    obs::FakeClock clock(5000);
    obs::setClockForTest(&clock);

    dg::ArchParams arch;
    arch.numLayers = 2;
    arch.hidden = 64;
    const dz::WeightStore pre =
        dz::WeightStore::makePretrained(arch, 7, 800);
    dz::FineTuneOptions ft_opts;
    const dz::WeightStore victim =
        dz::FineTuneSimulator::fineTune(pre, ft_opts, 8);

    auto run = [&](std::size_t threads) {
        sched::setThreads(threads);
        obs::ObsConfig cfg;
        cfg.flightMode = obs::FlightMode::On;
        obs::configure(cfg);

        // Events and spans recorded from pool workers land in
        // per-thread rings; the canonical dump must reassemble one
        // fixed stream.
        sched::parallelFor(96, 1, [&](std::size_t i) {
            auto sp = obs::span("test.worker");
            obs::flightRecord(obs::FlightEventKind::Retry, "probe",
                              "vote_rounds",
                              static_cast<double>(i));
        });

        // A real pipeline slice on top: stage timers + retry events
        // through the resilient prober (transient flips injected).
        de::BitProbeChannel channel(victim);
        dfa::FaultSpec spec;
        spec.probeFlipRate = 0.02;
        spec.seed = 13;
        dfa::FaultInjector injector(spec);
        channel.attachFaultInjector(&injector);
        de::RetryingProber prober(channel, nullptr);
        const de::ExtractionPolicy policy;
        const de::SelectiveWeightExtractor extractor(policy);
        de::ExtractionStats stats;
        auto out =
            extractor.extractLayer(pre.layers[0].w, prober, 0, stats);

        std::ostringstream dump;
        obs::flightRecorder().dumpJsonl(dump);
        std::ostringstream chrome;
        obs::flightRecorder().renderChromeTrace(chrome);
        obs::shutdown(); // clears recorder + mode for the next lane
        return std::make_pair(dump.str(), chrome.str());
    };

    const auto reference = run(1);
    EXPECT_NE(reference.first.find("\"type\":\"flight\""),
              std::string::npos);
    EXPECT_NE(reference.first.find("\"dropped\":0"), std::string::npos)
        << "a wrapped ring would invalidate the bit-identity claim";
    EXPECT_NE(reference.second.find("\"name\":\"test.worker\""),
              std::string::npos);
    EXPECT_NE(reference.second.find("\"dropped\":0"), std::string::npos);
    for (std::size_t threads : kThreadCounts) {
        const auto got = run(threads);
        EXPECT_EQ(got.first, reference.first)
            << "flight dump differs at " << threads << " lanes";
        EXPECT_EQ(got.second, reference.second)
            << "Chrome trace differs at " << threads << " lanes";
    }

    obs::setClockForTest(nullptr);
}

TEST(Determinism, TwoLevelAttackReportByteIdentical)
{
    PoolGuard guard;

    // Wall-clock phase timings are the one legitimately
    // nondeterministic report field; pin them with a manual clock.
    obs::FakeClock clock;
    obs::setClockForTest(&clock);

    auto run = [&](std::size_t threads) {
        sched::setThreads(threads);

        dz::ModelZoo zoo = dz::ModelZoo::buildDefault(51, 3, 0);
        dc::TwoLevelOptions opts;
        opts.level1.datasetOptions.imagesPerModel = 3;
        opts.level1.datasetOptions.resolution = 32;
        opts.level1.cnnOptions.epochs = 15;
        opts.level1.seed = 2;

        dtr::TransformerConfig cfg;
        cfg.vocab = 16;
        cfg.maxSeqLen = 8;
        cfg.hidden = 8;
        cfg.numLayers = 2;
        cfg.numHeads = 2;
        cfg.ffnDim = 16;
        cfg.numClasses = 2;

        dc::TwoLevelAttack attack(opts);
        for (const auto *candidate : zoo.pretrained()) {
            attack.addCandidate(
                *candidate, std::make_shared<dtr::TransformerClassifier>(
                                cfg, candidate->weightSeed));
        }
        const double accuracy = attack.prepare();

        const auto *parent = zoo.pretrained()[0];
        dtr::TransformerClassifier victim(cfg, 9);
        dtr::MarkovTask task(16, 2, 8, 5100, 4.0);
        const auto trace = dg::TraceGenerator(parent->signature)
                               .generate(parent->arch, 0xfee1);
        const auto report = attack.execute(
            victim, trace, dc::makeVictimQueryHook(parent->vocabProfile),
            task.sample(20, 1), task.sample(10, 2).examples,
            task.sample(10, 3).examples);

        // Byte-exact serializations of everything the run produced.
        return std::to_string(accuracy) + "\n" +
               dc::formatReport(report) + "\n" + report.toJson();
    };

    const std::string reference = run(1);
    EXPECT_FALSE(reference.empty());
    for (std::size_t threads : kThreadCounts)
        EXPECT_EQ(run(threads), reference)
            << "attack report differs at " << threads << " threads";

    obs::setClockForTest(nullptr);
}
