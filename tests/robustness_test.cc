/**
 * @file
 * Robustness and failure-injection tests across modules: degenerate
 * inputs, extreme noise, defense interactions, and edge-case shapes
 * that the main suites don't cover.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <vector>

#include "attack/adversarial.hh"
#include "attack/head_pruning.hh"
#include "core/decepticon.hh"
#include "core/run_report.hh"
#include "fault/channel.hh"
#include "fingerprint/boundary.hh"
#include "fingerprint/cnn.hh"
#include "fingerprint/dataset.hh"
#include "gpusim/emission.hh"
#include "gpusim/noise.hh"
#include "gpusim/trace_generator.hh"
#include "obs/obs.hh"
#include "sched/sched.hh"
#include "trace/image.hh"
#include "trace/repair.hh"
#include "transformer/trainer.hh"
#include "zoo/zoo.hh"

namespace dg = decepticon::gpusim;
namespace df = decepticon::fingerprint;
namespace dtc = decepticon::trace;
namespace dtr = decepticon::transformer;
namespace dz = decepticon::zoo;
namespace dc = decepticon::core;
namespace dfl = decepticon::fault;
namespace dob = decepticon::obs;

namespace {

dg::ArchParams
smallArch(std::size_t layers = 4)
{
    dg::ArchParams arch;
    arch.numLayers = layers;
    arch.hidden = 256;
    arch.numHeads = 4;
    arch.seqLen = 64;
    return arch;
}

} // namespace

TEST(Robustness, SingleLayerModelStillTraces)
{
    dg::SoftwareSignature sig;
    const dg::TraceGenerator gen(sig);
    const auto trace = gen.generate(smallArch(1), 1);
    EXPECT_EQ(static_cast<std::size_t>(std::count_if(
                  trace.records.begin(), trace.records.end(),
                  [](const dg::KernelRecord &r) {
                      return r.phase == dg::Phase::Encoder;
                  })),
              gen.groupSize());
    // With a single encoder there is no *layer* period; detection may
    // still surface intra-group motifs (e.g. the FFN block reusing the
    // output-projection kernels), which is genuine ambiguity. The
    // pipeline must stay well-formed either way.
    const auto res = df::detectLayerBoundaries(trace);
    if (res.found()) {
        EXPECT_LT(res.period, gen.groupSize());
    }
    const auto cropped = df::cropToEncoderRegion(trace);
    EXPECT_FALSE(cropped.records.empty());
    EXPECT_LE(cropped.records.size(), trace.records.size());
    const auto img = dtc::rasterize(cropped, 32);
    EXPECT_GT(img.sum(), 0.0);
}

TEST(Robustness, ExtremeNoiseKeepsTraceWellFormed)
{
    dg::SoftwareSignature sig;
    const dg::TraceGenerator gen(sig);
    const auto trace = gen.generate(smallArch(), 2);
    const auto noisy = dg::applyTimingNoise(
        trace, trace.records.size(), 10000.0, 3);
    double prev_end = 0.0;
    for (const auto &r : noisy.records) {
        EXPECT_GE(r.tStart, prev_end - 1e-9);
        EXPECT_GE(r.duration(), 0.5);
        prev_end = r.tEnd;
    }
    // Rasterization stays in range even under absurd noise.
    const auto img = dtc::rasterize(noisy, 32);
    for (std::size_t i = 0; i < img.size(); ++i) {
        EXPECT_GE(img[i], 0.0f);
        EXPECT_LE(img[i], 1.0f);
    }
}

TEST(Robustness, NoiseRequestLargerThanTraceClamps)
{
    dg::SoftwareSignature sig;
    const dg::TraceGenerator gen(sig);
    const auto trace = gen.generate(smallArch(2), 4);
    const auto noisy =
        dg::applyTimingNoise(trace, trace.records.size() * 10, 20.0, 5);
    EXPECT_EQ(noisy.records.size(), trace.records.size());
}

TEST(Robustness, DefenseStrengthZeroIsIdentity)
{
    dg::SoftwareSignature sig;
    sig.kernelDialect = 3;
    const dg::TraceGenerator gen(sig);
    const auto plain = gen.generate(smallArch(), 7);
    const auto defended = gen.generateDefended(smallArch(), 7, 0.0);
    ASSERT_EQ(plain.records.size(), defended.records.size());
    for (std::size_t i = 0; i < plain.records.size(); ++i) {
        EXPECT_EQ(plain.records[i].kernelId,
                  defended.records[i].kernelId);
        EXPECT_DOUBLE_EQ(plain.records[i].tEnd,
                         defended.records[i].tEnd);
    }
}

TEST(Robustness, DefenseScramblesKernelSchedule)
{
    dg::SoftwareSignature sig;
    sig.kernelDialect = 4;
    const dg::TraceGenerator gen(sig);
    const auto a = gen.generateDefended(smallArch(), 8, 1.0);
    const auto b = gen.generateDefended(smallArch(), 9, 1.0);
    ASSERT_EQ(a.records.size(), b.records.size());
    std::size_t differing = 0;
    for (std::size_t i = 0; i < a.records.size(); ++i)
        differing += a.records[i].kernelId != b.records[i].kernelId;
    // Run-to-run the schedule must no longer be stable.
    EXPECT_GT(differing, a.records.size() / 4);
}

TEST(Robustness, DefensePreservesKernelClassStructure)
{
    dg::SoftwareSignature sig;
    const dg::TraceGenerator gen(sig);
    const auto plain = gen.generate(smallArch(), 10);
    const auto defended = gen.generateDefended(smallArch(), 10, 1.0);
    ASSERT_EQ(plain.records.size(), defended.records.size());
    for (std::size_t i = 0; i < plain.records.size(); ++i) {
        // The defense swaps implementations, not operators.
        EXPECT_EQ(static_cast<int>(plain.records[i].klass),
                  static_cast<int>(defended.records[i].klass));
    }
}

TEST(Robustness, DefenseCostsRuntime)
{
    dg::SoftwareSignature sig;
    sig.kernelDialect = 6;
    const dg::TraceGenerator gen(sig);
    double plain = 0.0, defended = 0.0;
    for (std::uint64_t s = 0; s < 8; ++s) {
        plain += gen.generate(smallArch(), s).totalTime();
        defended +=
            gen.generateDefended(smallArch(), s, 1.0).totalTime();
    }
    EXPECT_GT(defended, plain);
}

TEST(Robustness, RasterizeSingleRecord)
{
    dg::KernelTrace t;
    auto names = std::make_shared<dg::KernelNameTable>();
    names->push({"k"});
    t.kernelNames = std::move(names);
    t.records.push_back({0, 0.0, 5.0, dg::Phase::Encoder,
                         dg::KernelClass::Gemm, 0});
    const auto img = dtc::rasterize(t, 16);
    EXPECT_GT(img.sum(), 0.0);
}

TEST(Robustness, BlurPreservesMass)
{
    dg::SoftwareSignature sig;
    const dg::TraceGenerator gen(sig);
    const auto img = dtc::rasterize(gen.generate(smallArch(), 11), 32);
    const auto blurred = dtc::boxBlur3(img);
    // Interior mass is preserved up to edge effects.
    EXPECT_NEAR(blurred.sum(), img.sum(), 0.25 * img.sum() + 1.0);
    float mx = 0.0f;
    for (std::size_t i = 0; i < blurred.size(); ++i)
        mx = std::max(mx, blurred[i]);
    EXPECT_LE(mx, 1.0f);
}

TEST(Robustness, CnnHandlesUniformImages)
{
    df::FingerprintCnn cnn(32, 4, 1);
    decepticon::tensor::Tensor black({32, 32});
    decepticon::tensor::Tensor white({32, 32}, 1.0f);
    const auto pb = cnn.classProbabilities(black);
    const auto pw = cnn.classProbabilities(white);
    double sb = 0.0, sw = 0.0;
    for (std::size_t i = 0; i < 4; ++i) {
        sb += pb[i];
        sw += pw[i];
        EXPECT_FALSE(std::isnan(pb[i]));
    }
    EXPECT_NEAR(sb, 1.0, 1e-5);
    EXPECT_NEAR(sw, 1.0, 1e-5);
}

TEST(Robustness, DatasetFromZooWithoutFinetuned)
{
    const auto zoo = dz::ModelZoo::buildDefault(5, 3, 0);
    df::DatasetOptions opts;
    opts.imagesPerModel = 2;
    opts.resolution = 32;
    const auto ds = df::buildDataset(zoo, opts);
    EXPECT_EQ(ds.samples.size(), 6u);
}

TEST(Robustness, SplitExtremes)
{
    const auto zoo = dz::ModelZoo::buildDefault(6, 3, 0);
    df::DatasetOptions opts;
    opts.imagesPerModel = 2;
    opts.resolution = 32;
    const auto ds = df::buildDataset(zoo, opts);
    const auto [all_train, none_test] = ds.split(1.0, 1);
    EXPECT_EQ(all_train.samples.size(), ds.samples.size());
    EXPECT_TRUE(none_test.samples.empty());
    const auto [none_train, all_test] = ds.split(0.0, 1);
    EXPECT_TRUE(none_train.samples.empty());
}

TEST(Robustness, AdversarialOnRobustInputReturnsInput)
{
    // A surrogate with zero embedding spread offers no useful flip:
    // every candidate scores identically (0), so nothing changes.
    dtr::TransformerConfig cfg;
    cfg.vocab = 8;
    cfg.maxSeqLen = 4;
    cfg.hidden = 8;
    cfg.numLayers = 1;
    cfg.numHeads = 2;
    cfg.ffnDim = 16;
    dtr::TransformerClassifier surrogate(cfg, 1);
    surrogate.embedding().table.value.fill(0.0f);
    decepticon::attack::AdversarialOptions opts;
    const std::vector<int> tokens{1, 2, 3};
    const auto adv = decepticon::attack::craftAdversarial(
        surrogate, tokens, 0, opts);
    EXPECT_EQ(adv, tokens);
}

TEST(Robustness, TransferWithNoEligibleSeeds)
{
    dtr::TransformerConfig cfg;
    cfg.vocab = 8;
    cfg.maxSeqLen = 4;
    cfg.hidden = 8;
    cfg.numLayers = 1;
    cfg.numHeads = 2;
    cfg.ffnDim = 16;
    cfg.numClasses = 2;
    dtr::TransformerClassifier victim(cfg, 2);
    // Labels guaranteed wrong: use (1 - predicted) as the label.
    std::vector<dtr::Example> seeds;
    for (int i = 0; i < 5; ++i) {
        dtr::Example ex;
        ex.tokens = {i % 8, (i + 1) % 8};
        ex.label = 1 - victim.predict(ex.tokens);
        seeds.push_back(ex);
    }
    const auto res = decepticon::attack::evaluateTransfer(
        victim, victim, seeds, {});
    EXPECT_EQ(res.eligible, 0u);
    EXPECT_DOUBLE_EQ(res.successRate(), 0.0);
}

TEST(Robustness, HeadPruningEstimateOnIdenticalTraces)
{
    dg::SoftwareSignature sig;
    const dg::TraceGenerator gen(sig);
    const auto t = gen.generate(smallArch(), 12);
    EXPECT_EQ(decepticon::attack::estimatePrunedHeadCount(t, t, 8), 0u);
}

/** Defense sweep: stronger defenses scramble schedules more. */
class DefenseSweep : public ::testing::TestWithParam<int>
{
};

TEST_P(DefenseSweep, ScheduleInstabilityGrowsWithStrength)
{
    dg::SoftwareSignature sig;
    sig.kernelDialect = GetParam();
    const dg::TraceGenerator gen(sig);
    double prev_same = 1.1;
    for (double strength : {0.0, 0.5, 1.0}) {
        const auto a =
            gen.generateDefended(smallArch(), 100, strength);
        const auto b =
            gen.generateDefended(smallArch(), 101, strength);
        std::size_t same = 0;
        for (std::size_t i = 0; i < a.records.size(); ++i)
            same += a.records[i].kernelId == b.records[i].kernelId;
        const double frac =
            static_cast<double>(same) /
            static_cast<double>(a.records.size());
        EXPECT_LE(frac, prev_same + 0.05);
        prev_same = frac;
    }
    EXPECT_LT(prev_same, 0.8); // full strength: mostly scrambled
}

INSTANTIATE_TEST_SUITE_P(Dialects, DefenseSweep, ::testing::Values(1, 2, 3));

// ---------------------------------------------------------------
// Multi-modal side-channel fusion: the channel-dropout matrix
// ---------------------------------------------------------------

namespace {

/** Shared trained multi-channel pipeline over a small pool. */
struct FusionFixture
{
    dz::ModelZoo zoo;
    dc::Decepticon pipeline;
    double testAccuracy;

    FusionFixture()
        : zoo(dz::ModelZoo::buildDefault(11, 5, 10)),
          pipeline(makeOptions()),
          testAccuracy(pipeline.trainExtractor(zoo))
    {
    }

    static dc::DecepticonOptions
    makeOptions()
    {
        dc::DecepticonOptions opts;
        opts.datasetOptions.imagesPerModel = 4;
        opts.datasetOptions.resolution = 32;
        opts.cnnOptions.epochs = 30;
        opts.seed = 3;
        return opts;
    }
};

FusionFixture &
fusionFixture()
{
    static FusionFixture fx;
    return fx;
}

/** One victim's clean emissions (generated once, corrupted per cell). */
struct VictimEmissions
{
    const dz::ModelIdentity *victim;
    std::vector<double> power;
    std::vector<double> thermal;
    std::vector<double> profiler;
};

const std::vector<VictimEmissions> &
victimEmissions(FusionFixture &fx)
{
    static std::vector<VictimEmissions> cache = [&] {
        std::vector<VictimEmissions> out;
        std::uint64_t seed = 0x90d0;
        for (const auto *victim : fx.zoo.finetuned()) {
            const auto trace = dg::TraceGenerator(victim->signature)
                                   .generate(victim->arch, ++seed);
            VictimEmissions ve;
            ve.victim = victim;
            ve.power = dg::emitPowerTrace(trace, seed);
            ve.thermal = dg::emitThermalTrace(trace, seed);
            ve.profiler = dg::emitProfilerCounters(trace, seed);
            out.push_back(std::move(ve));
        }
        return out;
    }();
    return cache;
}

/** Fault spec for one matrix cell: channels outside the availability
 *  subset are jammed; channels inside degrade with severity. */
dfl::MultiChannelFaultSpec
cellSpec(bool power_on, bool thermal_on, bool profiler_on,
         double severity)
{
    dfl::MultiChannelFaultSpec spec;
    spec.seed = 0xfa57;
    spec.at(dfl::Channel::Timestamp).jammed = true;
    const bool on[3] = {power_on, thermal_on, profiler_on};
    const dfl::Channel chans[3] = {dfl::Channel::Power,
                                   dfl::Channel::Thermal,
                                   dfl::Channel::Profiler};
    for (int i = 0; i < 3; ++i) {
        auto &c = spec.at(chans[i]);
        if (!on[i]) {
            c.jammed = true;
            continue;
        }
        c.dropoutRate = 0.3 * severity;
        c.truncateProbability = 0.5 * severity;
        c.noiseSigma = 0.3 * severity;
        c.quantStep = 0.05 * severity;
    }
    return spec;
}

struct CellOutcome
{
    double accuracy = 0.0;
    double insufficientFraction = 0.0;
    double meanConfidence = 0.0;
};

constexpr std::size_t kCellCaptures = 3;

double
resultConfidence(const dc::IdentificationResult &res)
{
    if (res.insufficientEvidence)
        return 0.0;
    return res.usedChannelFusion ? res.fusedConfidence
                                 : res.topProbability;
}

/** Run one matrix cell (timestamp jammed) over every victim. */
CellOutcome
runCell(FusionFixture &fx, bool power_on, bool thermal_on,
        bool profiler_on, double severity)
{
    dfl::MultiChannelFaultModel faults(
        cellSpec(power_on, thermal_on, profiler_on, severity));
    CellOutcome out;
    const auto &victims = victimEmissions(fx);
    double correct = 0.0, insufficient = 0.0, confidence = 0.0;
    std::uint64_t capture_seed = 0;
    for (const auto &ve : victims) {
        dc::MultiChannelCapture mc;
        for (std::size_t r = 0; r < kCellCaptures; ++r) {
            ++capture_seed;
            mc.powerCaptures.push_back(faults.corrupt(
                dfl::Channel::Power, ve.power, capture_seed));
            mc.thermalCaptures.push_back(faults.corrupt(
                dfl::Channel::Thermal, ve.thermal, capture_seed));
            mc.profilerCaptures.push_back(faults.corrupt(
                dfl::Channel::Profiler, ve.profiler, capture_seed));
        }
        const auto res = fx.pipeline.identifyFused(mc);
        if (res.insufficientEvidence) {
            insufficient += 1.0;
            EXPECT_TRUE(res.pretrainedName.empty());
        } else if (res.pretrainedName == ve.victim->pretrainedName) {
            correct += 1.0;
        }
        confidence += resultConfidence(res);
    }
    const auto n = static_cast<double>(victims.size());
    out.accuracy = correct / n;
    out.insufficientFraction = insufficient / n;
    out.meanConfidence = confidence / n;
    return out;
}

} // namespace

TEST(Fusion, ChannelDropoutMatrix)
{
    auto &fx = fusionFixture();

    const double severities[] = {0.0, 1.0};
    for (double severity : severities) {
        CellOutcome cells[2][2][2];
        for (int p = 0; p < 2; ++p) {
            for (int t = 0; t < 2; ++t) {
                for (int pr = 0; pr < 2; ++pr)
                    cells[p][t][pr] =
                        runCell(fx, p != 0, t != 0, pr != 0, severity);
            }
        }

        // Total blackout: every victim yields an explicit
        // insufficient-evidence verdict, never a silent guess.
        EXPECT_DOUBLE_EQ(cells[0][0][0].insufficientFraction, 1.0);
        EXPECT_DOUBLE_EQ(cells[0][0][0].accuracy, 0.0);
        EXPECT_DOUBLE_EQ(cells[0][0][0].meanConfidence, 0.0);

        // Any nonempty subset always answers (best-effort, possibly
        // low confidence) — graceful degradation, not refusal.
        for (int p = 0; p < 2; ++p) {
            for (int t = 0; t < 2; ++t) {
                for (int pr = 0; pr < 2; ++pr) {
                    if (p + t + pr == 0)
                        continue;
                    EXPECT_DOUBLE_EQ(
                        cells[p][t][pr].insufficientFraction, 0.0)
                        << "subset p=" << p << " t=" << t
                        << " pr=" << pr;
                }
            }
        }

        // Monotonicity: adding a channel never costs more than a
        // small slack in accuracy (2 victims here).
        const double slack = 0.2;
        for (int p = 0; p < 2; ++p) {
            for (int t = 0; t < 2; ++t) {
                for (int pr = 0; pr < 2; ++pr) {
                    const auto &base = cells[p][t][pr];
                    if (p == 0) {
                        EXPECT_GE(cells[1][t][pr].accuracy,
                                  base.accuracy - slack);
                    }
                    if (t == 0) {
                        EXPECT_GE(cells[p][1][pr].accuracy,
                                  base.accuracy - slack);
                    }
                    if (pr == 0) {
                        EXPECT_GE(cells[p][t][1].accuracy,
                                  base.accuracy - slack);
                    }
                }
            }
        }

        // Calibration: full-evidence decisions carry at least the
        // confidence of single-channel decisions on average.
        const double full_conf = cells[1][1][1].meanConfidence;
        EXPECT_GE(full_conf + 0.05, cells[1][0][0].meanConfidence);
        EXPECT_GE(full_conf + 0.05, cells[0][1][0].meanConfidence);
        EXPECT_GE(full_conf + 0.05, cells[0][0][1].meanConfidence);

        if (severity == 0.0) {
            // Acceptance: timestamp fully jammed, the other three
            // channels healthy -> at least 70% of victims identified.
            EXPECT_GE(cells[1][1][1].accuracy, 0.7);
        }
    }

    // Fault severity monotonicity on the full subset.
    const auto clean = runCell(fx, true, true, true, 0.0);
    const auto harsh = runCell(fx, true, true, true, 1.0);
    EXPECT_GE(clean.accuracy, harsh.accuracy - 0.2);
}

TEST(Fusion, AllChannelsHealthyBeatsTimestampOnly)
{
    auto &fx = fusionFixture();
    std::size_t ts_correct = 0, fused_correct = 0;
    std::uint64_t seed = 0x7a11;
    for (const auto *victim : fx.zoo.finetuned()) {
        const auto trace = dg::TraceGenerator(victim->signature)
                               .generate(victim->arch, ++seed);
        dc::MultiChannelCapture ts_only;
        ts_only.timestampCaptures = {trace, trace, trace};
        dc::MultiChannelCapture all = ts_only;
        all.powerCaptures = {dg::emitPowerTrace(trace, seed)};
        all.thermalCaptures = {
            dg::emitThermalTrace(trace, seed)};
        all.profilerCaptures = {
            dg::emitProfilerCounters(trace, seed)};

        const auto ts_res = fx.pipeline.identifyFused(ts_only);
        const auto all_res = fx.pipeline.identifyFused(all);
        ts_correct += ts_res.pretrainedName == victim->pretrainedName;
        fused_correct +=
            all_res.pretrainedName == victim->pretrainedName;
        EXPECT_EQ(all_res.channelsAvailable, 4u);
    }
    // With every channel healthy the fused path must not lose to the
    // timestamp-only path.
    EXPECT_GE(fused_correct, ts_correct);
}

TEST(Fusion, HealthyTimestampCapturesMatchConsensusAndQuorum)
{
    auto &fx = fusionFixture();
    df::FingerprintCnn &cnn = fx.pipeline.cnn();
    const dc::ResilientIdentifyOptions ropts;
    std::uint64_t seed = 0x5afe;
    for (const auto *victim : fx.zoo.finetuned()) {
        const dg::TraceGenerator gen(victim->signature);
        dc::MultiChannelCapture mc;
        for (int r = 0; r < 3; ++r)
            mc.timestampCaptures.push_back(
                gen.generate(victim->arch, ++seed));

        // What the fused path owes: the consensus trace's single-trace
        // identification, plus one CNN vote per voter.
        const dg::KernelTrace consensus =
            dtc::repairTraces(mc.timestampCaptures);
        const dc::IdentificationResult base =
            fx.pipeline.identify(consensus);
        std::vector<std::size_t> votes(fx.pipeline.classNames().size(),
                                       0);
        auto vote = [&](const dg::KernelTrace &t) {
            ++votes[static_cast<std::size_t>(cnn.predict(
                df::fingerprintImage(t, cnn.resolution())))];
        };
        vote(consensus);
        for (const auto &t : mc.timestampCaptures)
            vote(t);
        const auto win = std::max_element(votes.begin(), votes.end());
        const double share =
            static_cast<double>(*win) /
            static_cast<double>(1 + mc.timestampCaptures.size());
        ASSERT_GE(base.topProbability, ropts.cnnConfidenceThreshold);
        ASSERT_GE(share, dc::kQuorumThreshold);

        const dc::IdentificationResult res =
            fx.pipeline.identifyFused(mc);
        EXPECT_FALSE(res.insufficientEvidence);
        EXPECT_FALSE(res.usedChannelFusion);
        EXPECT_EQ(res.pretrainedName,
                  fx.pipeline.classNames()[static_cast<std::size_t>(
                      win - votes.begin())]);
        EXPECT_EQ(res.candidates, base.candidates);
        EXPECT_EQ(res.topProbability, base.topProbability);
        EXPECT_EQ(res.quorumAgreement, share);
    }
}

TEST(Fusion, FusedIdentificationCountsOnce)
{
    auto &fx = fusionFixture();
    const dz::ModelIdentity &m = *fx.zoo.finetuned().front();
    const dg::TraceGenerator gen(m.signature);
    dc::MultiChannelCapture mc;
    mc.timestampCaptures = {gen.generate(m.arch, 0xc0),
                            gen.generate(m.arch, 0xc1)};

    dob::ObsConfig cfg;
    cfg.metricsEnabled = true;
    dob::configure(cfg);
    auto &reg = dob::metrics();
    const auto classifies = [&reg] {
        const auto h = reg.latency("stage.classify.micros");
        return h ? h->total() : 0;
    };
    const std::uint64_t identifies = reg.counter("level1.identifies");
    const std::uint64_t classified = classifies();
    const std::uint64_t ts_available =
        reg.counter("level1.channel.timestamp.available");
    const std::uint64_t power_dark =
        reg.counter("level1.channel.power.dark");
    const auto res = fx.pipeline.identifyFused(mc);
    EXPECT_EQ(reg.counter("level1.identifies") - identifies, 1u);
    EXPECT_EQ(classifies() - classified, 1u);
    // The per-channel availability counters keep their names.
    EXPECT_EQ(reg.counter("level1.channel.timestamp.available") -
                  ts_available,
              1u);
    EXPECT_EQ(reg.counter("level1.channel.power.dark") - power_dark, 1u);
    dob::shutdown();
    EXPECT_FALSE(res.insufficientEvidence);
}

TEST(Fusion, CoverageReachesTheFlightDump)
{
    // The timestamp channel is dark, so the fused decision rests on
    // three of the four registered channels: its fusion_coverage
    // verdict event must read below 1.
    auto &fx = fusionFixture();
    const VictimEmissions &ve = victimEmissions(fx).front();
    dc::MultiChannelCapture mc;
    mc.powerCaptures = {ve.power};
    mc.thermalCaptures = {ve.thermal};
    mc.profilerCaptures = {ve.profiler};

    dob::ObsConfig cfg;
    cfg.flightMode = dob::FlightMode::On;
    dob::configure(cfg);
    const auto res = fx.pipeline.identifyFused(mc);
    std::vector<double> coverage;
    for (const auto &ev : dob::flightRecorder().canonicalEvents()) {
        if (ev.kind == dob::FlightEventKind::Verdict &&
            ev.detail == "fusion_coverage")
            coverage.push_back(ev.value);
    }
    dob::shutdown();
    EXPECT_TRUE(res.usedChannelFusion);
    ASSERT_EQ(coverage.size(), 1u);
    EXPECT_GT(coverage[0], 0.0);
    EXPECT_LT(coverage[0], 1.0);
}

TEST(Fusion, CapturesFromFourLineagesAbstain)
{
    // Four captures that each show a different parent give the quorum
    // no majority. With no side channel to fuse, the honest verdict is
    // insufficient evidence, not a guess.
    auto &fx = fusionFixture();
    const auto parents = fx.zoo.pretrained();
    ASSERT_GE(parents.size(), 4u);
    dc::MultiChannelCapture mc;
    for (std::size_t i = 0; i < 4; ++i)
        mc.timestampCaptures.push_back(
            dg::TraceGenerator(parents[i]->signature)
                .generate(parents[i]->arch, 0x4e0 + i));
    const auto res = fx.pipeline.identifyFused(mc);
    EXPECT_TRUE(res.insufficientEvidence);
    EXPECT_TRUE(res.pretrainedName.empty());
}

TEST(Fusion, InsufficientEvidenceInsteadOfSilentGuess)
{
    auto &fx = fusionFixture();

    // Regression: the timestamp-only path used to hand back the sequence
    // predictor's argmin even when every capture was empty — a silent
    // wrong answer. Now the verdict is explicit.
    dc::MultiChannelCapture empties;
    empties.timestampCaptures.resize(3);
    const auto res = fx.pipeline.identifyFused(empties);
    EXPECT_TRUE(res.insufficientEvidence);
    EXPECT_TRUE(res.pretrainedName.empty());
    EXPECT_EQ(res.channelsAvailable, 0u);
    EXPECT_DOUBLE_EQ(res.topProbability, 0.0);

    // Zero captures degrade the same way (no assert, no crash).
    const auto none = fx.pipeline.identifyFused(dc::MultiChannelCapture{});
    EXPECT_TRUE(none.insufficientEvidence);

    // The verdict survives into the run report.
    dc::AttackReport report;
    report.identification = res;
    EXPECT_TRUE(report.identification.insufficientEvidence);
    EXPECT_NE(report.toJson().find("\"insufficient_evidence\":true"),
              std::string::npos);
    EXPECT_NE(report.summaryParagraph().find("abstained"),
              std::string::npos);
}

TEST(Fusion, FusedIdentificationBitIdenticalAcrossLanes)
{
    auto &fx = fusionFixture();
    struct PoolGuard
    {
        ~PoolGuard() { decepticon::sched::setThreads(0); }
    } guard;

    // One harsh cell, all side channels up, timestamp jammed.
    dfl::MultiChannelFaultModel faults(
        cellSpec(true, true, true, 1.0));
    const auto &victims = victimEmissions(fx);
    std::vector<dc::MultiChannelCapture> captures;
    std::uint64_t capture_seed = 0x1a7e;
    for (const auto &ve : victims) {
        dc::MultiChannelCapture mc;
        for (std::size_t r = 0; r < kCellCaptures; ++r) {
            ++capture_seed;
            mc.powerCaptures.push_back(faults.corrupt(
                dfl::Channel::Power, ve.power, capture_seed));
            mc.thermalCaptures.push_back(faults.corrupt(
                dfl::Channel::Thermal, ve.thermal, capture_seed));
            mc.profilerCaptures.push_back(faults.corrupt(
                dfl::Channel::Profiler, ve.profiler, capture_seed));
        }
        captures.push_back(std::move(mc));
    }

    decepticon::sched::setThreads(1);
    std::vector<dc::IdentificationResult> reference;
    for (const auto &mc : captures)
        reference.push_back(fx.pipeline.identifyFused(mc));

    for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                                std::size_t{8}}) {
        decepticon::sched::setThreads(threads);
        for (std::size_t i = 0; i < captures.size(); ++i) {
            const auto res = fx.pipeline.identifyFused(captures[i]);
            EXPECT_EQ(res.pretrainedName, reference[i].pretrainedName);
            EXPECT_EQ(res.insufficientEvidence,
                      reference[i].insufficientEvidence);
            EXPECT_EQ(res.fusedConfidence,
                      reference[i].fusedConfidence);
            EXPECT_EQ(res.channelsUsed, reference[i].channelsUsed);
            ASSERT_EQ(res.candidates.size(),
                      reference[i].candidates.size());
            for (std::size_t k = 0; k < res.candidates.size(); ++k)
                EXPECT_EQ(res.candidates[k],
                          reference[i].candidates[k]);
        }
    }
}
