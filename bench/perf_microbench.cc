/**
 * @file
 * google-benchmark microbenchmarks for the library's hot paths:
 * GEMM, transformer forward/backward, trace generation and repair,
 * rasterization, CNN inference, and selective weight extraction
 * throughput.
 */

#include <benchmark/benchmark.h>

#include <fstream>
#include <iostream>

#include "core/decepticon.hh"
#include "extraction/bitprobe.hh"
#include "extraction/resilient.hh"
#include "extraction/selective.hh"
#include "fault/fault.hh"
#include "fingerprint/cnn.hh"
#include "fingerprint/dataset.hh"
#include "fingerprint/index/embedding.hh"
#include "fingerprint/index/lsh.hh"
#include "gpusim/emission.hh"
#include "gpusim/trace_generator.hh"
#include "sched/sched.hh"
#include "tensor/tensor.hh"
#include "trace/image.hh"
#include "trace/repair.hh"
#include "transformer/classifier.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "util/rng.hh"
#include "zoo/finetune_sim.hh"
#include "zoo/procedural.hh"
#include "zoo/weight_store.hh"
#include "zoo/zoo.hh"

using namespace decepticon;

namespace {

void
BM_Matmul(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    util::Rng rng(1);
    tensor::Tensor a({n, n}), b({n, n});
    a.fillGaussian(rng, 1.0f);
    b.fillGaussian(rng, 1.0f);
    for (auto _ : state) {
        auto c = tensor::matmul(a, b);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n * n * n));
}
BENCHMARK(BM_Matmul)->Arg(16)->Arg(64)->Arg(128);

void
BM_TransformerForward(benchmark::State &state)
{
    transformer::TransformerConfig cfg;
    cfg.vocab = 64;
    cfg.maxSeqLen = 32;
    cfg.hidden = 32;
    cfg.numLayers = static_cast<std::size_t>(state.range(0));
    cfg.numHeads = 4;
    cfg.ffnDim = 64;
    transformer::TransformerClassifier model(cfg, 2);
    std::vector<int> tokens(32, 5);
    for (auto _ : state) {
        auto lg = model.logits(tokens);
        benchmark::DoNotOptimize(lg.data());
    }
}
BENCHMARK(BM_TransformerForward)->Arg(2)->Arg(6)->Arg(12);

void
BM_SoftmaxRows(benchmark::State &state)
{
    const auto n = static_cast<std::size_t>(state.range(0));
    util::Rng rng(3);
    tensor::Tensor a({n, n});
    a.fillGaussian(rng, 2.0f);
    for (auto _ : state) {
        auto p = tensor::softmaxRows(a);
        benchmark::DoNotOptimize(p.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_SoftmaxRows)->Arg(32)->Arg(128);

void
BM_TransformerTrainStep(benchmark::State &state)
{
    transformer::TransformerConfig cfg;
    cfg.vocab = 64;
    cfg.maxSeqLen = 16;
    cfg.hidden = 32;
    cfg.numLayers = 4;
    cfg.numHeads = 4;
    cfg.ffnDim = 64;
    transformer::TransformerClassifier model(cfg, 3);
    std::vector<int> tokens(16, 5);
    for (auto _ : state) {
        const float loss = model.lossAndBackward(tokens, 1);
        benchmark::DoNotOptimize(loss);
    }
}
BENCHMARK(BM_TransformerTrainStep);

void
BM_TraceGeneration(benchmark::State &state)
{
    gpusim::SoftwareSignature sig;
    if (state.range(0) == 1) {
        sig.framework = gpusim::Framework::TensorFlow;
        sig.developer = gpusim::Developer::Google;
        sig.useXla = true;
    }
    const gpusim::TraceGenerator gen(sig);
    gpusim::ArchParams arch;
    arch.numLayers = 24;
    arch.hidden = 1024;
    arch.numHeads = 16;
    std::uint64_t seed = 0;
    for (auto _ : state) {
        auto trace = gen.generate(arch, seed++);
        benchmark::DoNotOptimize(trace.records.data());
    }
}
BENCHMARK(BM_TraceGeneration)->Arg(0)->Arg(1);

/** A TensorFlow release at the campaign zoo's BERT-base shape. */
gpusim::SoftwareSignature
tfRelease()
{
    gpusim::SoftwareSignature sig;
    sig.framework = gpusim::Framework::TensorFlow;
    sig.developer = gpusim::Developer::Google;
    sig.kernelDialect = 3;
    return sig;
}

/**
 * S1's per-session generate cost: a campaign builds about one
 * generator per session, so the build (catalog, name table,
 * templates) is timed together with the one trace it emits.
 */
void
BM_TraceGenerate(benchmark::State &state)
{
    const gpusim::SoftwareSignature sig = tfRelease();
    const gpusim::ArchParams arch;
    std::uint64_t seed = 0;
    for (auto _ : state) {
        const gpusim::TraceGenerator gen(sig);
        auto trace = gen.generate(arch, seed++);
        benchmark::DoNotOptimize(trace.records.data());
    }
}
BENCHMARK(BM_TraceGenerate);

/** The 4096-release procedural zoo of campaignbench's faulty_index. */
const zoo::ModelZoo &
proceduralZoo4096()
{
    static const zoo::ModelZoo pool = [] {
        zoo::ProceduralZooOptions zopts;
        zopts.identities = 4096;
        zopts.families = 32;
        zopts.seed = 21;
        return zoo::buildProceduralZoo(zopts);
    }();
    return pool;
}

/**
 * A generator build alone (catalog, name table, templates), cycling
 * through the 4096 procedural releases: the per-release set-up cost S1
 * pays once per lineage per batch.
 */
void
BM_GeneratorBuild(benchmark::State &state)
{
    const auto &models = proceduralZoo4096().models();
    std::size_t i = 0;
    for (auto _ : state) {
        const gpusim::TraceGenerator gen(models[i].signature);
        benchmark::DoNotOptimize(&gen);
        i = i + 1 == models.size() ? 0 : i + 1;
    }
}
BENCHMARK(BM_GeneratorBuild);

/**
 * One S3 index lookup, shortlist plus exact re-rank, on the trained
 * 4096-lineage index, cycling through 256 fresh victim embeddings.
 */
void
BM_IndexLookup(benchmark::State &state)
{
    const zoo::ModelZoo &pool = proceduralZoo4096();
    core::DecepticonOptions dopts;
    dopts.seed = 2;
    core::Decepticon level1(dopts);
    level1.trainExtractor(pool);
    const fingerprint::FingerprintIndex &index = *level1.index();
    std::vector<std::vector<float>> queries;
    for (std::size_t q = 0; q < 256; ++q) {
        const zoo::ModelIdentity &m = pool.models()[q * 16 + q % 13];
        queries.push_back(fingerprint::traceEmbedding(
            gpusim::TraceGenerator(m.signature).generate(m.arch,
                                                         0x100c + q)));
    }
    std::size_t q = 0;
    for (auto _ : state) {
        const std::vector<float> &emb = queries[q];
        auto probs = index.scores(emb, index.shortlist(emb));
        benchmark::DoNotOptimize(probs.data());
        q = q + 1 == queries.size() ? 0 : q + 1;
    }
}
BENCHMARK(BM_IndexLookup);

/**
 * S1's repair cost: three captures of one TF trace at fault severity
 * 0.5 (the campaign's drop, duplicate and truncation rates scaled by
 * 0.5), rebuilt into one consensus per iteration.
 */
void
BM_TraceRepair(benchmark::State &state)
{
    const gpusim::TraceGenerator gen(tfRelease());
    const gpusim::KernelTrace truth = gen.generate(gpusim::ArchParams{}, 7);
    fault::FaultSpec fs;
    fs.recordDropRate = 0.35 * 0.5;
    fs.recordDuplicateRate = 0.1 * 0.5;
    fs.truncateProbability = 0.5 * 0.5;
    fs.seed = 0xfa1ee7ULL;
    fault::FaultInjector injector(fs);
    std::vector<gpusim::KernelTrace> captures;
    for (std::uint64_t c = 0; c < 3; ++c)
        captures.push_back(injector.corruptTrace(truth, c));
    for (auto _ : state) {
        auto consensus = trace::repairTraces(captures);
        benchmark::DoNotOptimize(consensus.records.data());
    }
}
BENCHMARK(BM_TraceRepair);

void
BM_Rasterize(benchmark::State &state)
{
    gpusim::SoftwareSignature sig;
    const gpusim::TraceGenerator gen(sig);
    gpusim::ArchParams arch;
    arch.numLayers = 24;
    arch.hidden = 1024;
    const auto trace = gen.generate(arch, 1);
    const auto res = static_cast<std::size_t>(state.range(0));
    for (auto _ : state) {
        auto img = trace::rasterize(trace, res);
        benchmark::DoNotOptimize(img.data());
    }
}
BENCHMARK(BM_Rasterize)->Arg(32)->Arg(64)->Arg(128);

void
BM_CnnPredict(benchmark::State &state)
{
    fingerprint::FingerprintCnn cnn(64, 16, 4);
    tensor::Tensor img({64, 64}, 0.2f);
    for (auto _ : state) {
        const int pred = cnn.predict(img);
        benchmark::DoNotOptimize(pred);
    }
}
BENCHMARK(BM_CnnPredict);

void
BM_SelectiveExtraction(benchmark::State &state)
{
    sched::setThreads(static_cast<std::size_t>(state.range(0)));
    gpusim::ArchParams arch;
    arch.numLayers = 2;
    arch.hidden = 768;
    const auto pre = zoo::WeightStore::makePretrained(arch, 5, 10000);
    zoo::FineTuneOptions fopts;
    const auto victim = zoo::FineTuneSimulator::fineTune(pre, fopts, 6);
    extraction::ExtractionPolicy policy;
    extraction::SelectiveWeightExtractor extractor(policy);
    for (auto _ : state) {
        extraction::BitProbeChannel channel(victim);
        extraction::ExtractionStats stats;
        auto clone =
            extractor.extractLayer(pre.layers[0].w, channel, 0, stats);
        benchmark::DoNotOptimize(clone.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) * 10000);
    sched::setThreads(0);
}
// Threaded sweeps must be timed (and iteration-counted) on the wall
// clock: with pool workers doing the work, cpu_time sums all lanes
// and would hide any speedup.
BENCHMARK(BM_SelectiveExtraction)->Arg(1)->Arg(4)->UseRealTime();

/**
 * The headline parallel path: whole-zoo fingerprint dataset
 * generation at 1 / 2 / 4 scheduler lanes. main() folds the per-lane
 * real_time gauges into bench.BM_DatasetGeneration.speedup_<N>t so
 * BENCH_perf_microbench.json carries the scaling curve directly.
 */
void
BM_DatasetGeneration(benchmark::State &state)
{
    sched::setThreads(static_cast<std::size_t>(state.range(0)));
    zoo::ModelZoo zoo = zoo::ModelZoo::buildDefault(11, 4, 8);
    fingerprint::DatasetOptions opts;
    opts.imagesPerModel = 2;
    opts.resolution = 32;
    opts.seed = 5;
    std::size_t samples = 0;
    for (auto _ : state) {
        auto ds = fingerprint::buildDataset(zoo, opts);
        samples = ds.samples.size();
        benchmark::DoNotOptimize(ds.samples.data());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(samples));
    sched::setThreads(0);
}
BENCHMARK(BM_DatasetGeneration)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

/**
 * Flight-recorder overhead probe: the same forward pass as
 * BM_TransformerForward/12, but with the flight recorder armed.
 * main() folds the pair into bench.flight.overhead_pct; the budget
 * for always-on flight recording is <5% of real time.
 */
void
BM_TransformerForwardFlightOn(benchmark::State &state)
{
    obs::ObsConfig ocfg;
    ocfg.flightMode = obs::FlightMode::On;
    obs::configure(ocfg);
    transformer::TransformerConfig cfg;
    cfg.vocab = 64;
    cfg.maxSeqLen = 32;
    cfg.hidden = 32;
    cfg.numLayers = 12;
    cfg.numHeads = 4;
    cfg.ffnDim = 64;
    transformer::TransformerClassifier model(cfg, 2);
    std::vector<int> tokens(32, 5);
    for (auto _ : state) {
        auto lg = model.logits(tokens);
        benchmark::DoNotOptimize(lg.data());
    }
    obs::configure(obs::ObsConfig{});
    obs::flightRecorder().clear();
}
BENCHMARK(BM_TransformerForwardFlightOn);

/** Minimum samples per gated stage, so a p99 is not one call. */
constexpr std::size_t kStageSamples = 100;

/**
 * Drive one compact end-to-end slice of the attack pipeline with the
 * global metrics registry enabled, so the snapshot carries per-stage
 * latency histograms. main() folds them into
 * bench.stage.<stage>.p50_micros / .p99_micros gauges — the inputs
 * bench_compare.py gates p99 regressions on.
 *
 * The timestamp channel is jammed on the fused point so the decision
 * graph cannot take the healthy-quorum short-circuit: the fusion
 * engine must run, and the "fuse" stage collects real samples.
 */
void
runStageLatencyWorkload()
{
    zoo::ModelZoo pool = zoo::ModelZoo::buildDefault(9, 4, 8);
    core::DecepticonOptions dopts;
    dopts.datasetOptions.imagesPerModel = 2;
    dopts.datasetOptions.resolution = 32;
    dopts.cnnOptions.epochs = 10;
    dopts.seed = 17;
    core::Decepticon pipeline(dopts);
    pipeline.trainExtractor(pool);

    // The registry turns on after set-up: training synthesizes its
    // dataset in parallel, and those trace_capture calls are not the
    // pipeline slice the gauges describe.
    obs::ObsConfig ocfg;
    ocfg.metricsEnabled = true;
    obs::configure(ocfg);

    fault::MultiChannelFaultSpec mspec;
    mspec.seed = 0xbe7a;
    mspec.at(fault::Channel::Timestamp).jammed = true;
    fault::MultiChannelFaultModel mfaults(mspec);

    fault::FaultSpec tspec;
    tspec.recordDropRate = 0.02;
    tspec.recordDuplicateRate = 0.01;
    tspec.seed = 616;
    fault::FaultInjector tinj(tspec);

    // The victims are reused round robin until every stage below has
    // kStageSamples samples.
    const std::vector<const zoo::ModelIdentity *> victims =
        pool.finetuned();
    std::uint64_t cap_seed = 0;
    for (std::size_t n = 0; n < kStageSamples; ++n) {
        const zoo::ModelIdentity *victim = victims[n % victims.size()];
        const gpusim::TraceGenerator gen(victim->signature);
        const auto trace =
            gen.generate(victim->arch, 0x5ca1eULL + n); // trace_capture
        pipeline.identify(
            tinj.corruptTrace(trace, ++cap_seed)); // classify
        const auto power = gpusim::emitPowerTrace(trace, n);
        const auto thermal = gpusim::emitThermalTrace(trace, n);
        const auto counters =
            gpusim::emitProfilerCounters(trace, n);
        core::MultiChannelCapture mc;
        for (std::size_t r = 0; r < 2; ++r) {
            ++cap_seed;
            mc.powerCaptures.push_back(mfaults.corrupt(
                fault::Channel::Power, power, cap_seed));
            mc.thermalCaptures.push_back(mfaults.corrupt(
                fault::Channel::Thermal, thermal, cap_seed));
            mc.profilerCaptures.push_back(mfaults.corrupt(
                fault::Channel::Profiler, counters, cap_seed));
        }
        pipeline.identifyFused(mc); // fuse
    }

    // extract: one small layer pulled through the retrying prober
    // and the selective extractor, kStageSamples times.
    gpusim::ArchParams arch;
    arch.numLayers = 2;
    arch.hidden = 128;
    const auto pre = zoo::WeightStore::makePretrained(arch, 5, 2000);
    zoo::FineTuneOptions fopts;
    const auto victim = zoo::FineTuneSimulator::fineTune(pre, fopts, 6);
    extraction::BitProbeChannel channel(victim);
    extraction::RetryingProber prober(channel, nullptr);
    extraction::ExtractionPolicy policy;
    extraction::SelectiveWeightExtractor extractor(policy);
    for (std::size_t n = 0; n < kStageSamples; ++n) {
        extraction::ExtractionStats stats;
        auto clone =
            extractor.extractLayer(pre.layers[0].w, prober, 0, stats);
        benchmark::DoNotOptimize(clone.data());
    }

    // Stop collecting but keep the registry contents: shutdown()
    // would wipe the gauges the reporter already folded in.
    obs::configure(obs::ObsConfig{});
}

/**
 * Console reporter that additionally folds every finished run into
 * the global metrics registry as "bench.<name>.*" gauges, so the
 * process can drop a machine-readable BENCH_*.json snapshot next to
 * the usual console table.
 */
class MetricsReporter : public benchmark::ConsoleReporter
{
  public:
    void ReportRuns(const std::vector<Run> &runs) override
    {
        benchmark::ConsoleReporter::ReportRuns(runs);
        auto &reg = obs::metrics();
        for (const auto &run : runs) {
            if (run.error_occurred)
                continue;
            const std::string base = "bench." + run.benchmark_name();
            reg.setGauge(base + ".real_time",
                         run.GetAdjustedRealTime());
            reg.setGauge(base + ".cpu_time", run.GetAdjustedCPUTime());
            reg.setGauge(base + ".iterations",
                         static_cast<double>(run.iterations));
            for (const auto &kv : run.counters)
                reg.setGauge(base + "." + kv.first,
                             static_cast<double>(kv.second));
        }
    }
};

} // namespace

int
main(int argc, char **argv)
{
    obs::initFromEnv();
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    MetricsReporter reporter;
    benchmark::RunSpecifiedBenchmarks(&reporter);

    // Distil the per-lane runs into serial/parallel speedup gauges so
    // the JSON snapshot answers "did threading pay off" in one line.
    // Wall-clock times only: cpu_time aggregates the pool workers and
    // would report a bogus ~n-fold "speedup". On a single-core host
    // the gauges are skipped outright — every lane count measures the
    // same serial machine, so a scaling ratio would be noise.
    auto &reg = obs::metrics();
    const auto lane_real_time = [&reg](const std::string &bench, int t) {
        const std::string base =
            "bench." + bench + "/" + std::to_string(t);
        // UseRealTime() runs carry a /real_time name suffix.
        const double v = reg.gauge(base + "/real_time.real_time");
        return v > 0.0 ? v : reg.gauge(base + ".real_time");
    };
    const auto record_speedup = [&](const std::string &bench, int t) {
        const double serial = lane_real_time(bench, 1);
        const double par = lane_real_time(bench, t);
        if (serial > 0.0 && par > 0.0)
            reg.setGauge("bench." + bench + ".speedup_" +
                             std::to_string(t) + "t",
                         serial / par);
    };
    if (sched::hardwareThreads() > 1) {
        record_speedup("BM_DatasetGeneration", 2);
        record_speedup("BM_DatasetGeneration", 4);
        record_speedup("BM_SelectiveExtraction", 4);
    }
    reg.setGauge("bench.hardware_threads",
                 static_cast<double>(sched::hardwareThreads()));

    // Flight overhead: armed vs unarmed forward pass, as a percent of
    // the unarmed real time. Budget: <5%.
    const double base_rt =
        reg.gauge("bench.BM_TransformerForward/12.real_time");
    const double flight_rt =
        reg.gauge("bench.BM_TransformerForwardFlightOn.real_time");
    if (base_rt > 0.0 && flight_rt > 0.0)
        reg.setGauge("bench.flight.overhead_pct",
                     (flight_rt - base_rt) / base_rt * 100.0);

    // Per-stage latency quantiles from the instrumented pipeline
    // slice, exported as plain gauges so bench_compare.py can gate
    // p99 regressions without reparsing histograms.
    runStageLatencyWorkload();
    for (const char *stage :
         {"trace_capture", "classify", "fuse", "extract"}) {
        const auto hist =
            reg.latency(std::string("stage.") + stage + ".micros");
        if (!hist || hist->total() == 0)
            continue;
        const std::string base = std::string("bench.stage.") + stage;
        reg.setGauge(base + ".p50_micros", hist->quantile(0.50));
        reg.setGauge(base + ".p99_micros", hist->quantile(0.99));
        reg.setGauge(base + ".samples",
                     static_cast<double>(hist->total()));
    }

    std::ofstream out("BENCH_perf_microbench.json");
    obs::metrics().exportJson(out);
    out << "\n";
    std::cout << "\nwrote BENCH_perf_microbench.json\n";
    obs::flush();
    return 0;
}
