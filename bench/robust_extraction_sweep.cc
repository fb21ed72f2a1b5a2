/**
 * @file
 * Unreliable-channel sweep: how the attack degrades — and how the
 * resilience machinery recovers — as both side channels get noisier.
 *
 * Part A sweeps trace-capture faults (dropped/duplicated records,
 * truncated tails) and compares level-1 identification from a single
 * corrupted capture against identifyFused() over R repaired
 * timestamp captures (consensus classification plus a per-capture
 * quorum vote).
 *
 * Part B sweeps bit-probe faults (transient flips + failed attempts)
 * on a partially hammerable DRAM (hammerableRowFraction = 0.85) and
 * clones a real fine-tuned victim with the raw channel vs the
 * retrying/voting/falling-back prober, reporting clone error and the
 * hammer-round overhead the resilience costs. It also replays one
 * faulty run to verify fault injection is bit-for-bit deterministic.
 *
 * Part C sweeps which evidence channels survive (timestamp / power /
 * thermal / profiler availability subsets) crossed with side-channel
 * fault severity, and reports fused identification accuracy, the
 * explicit insufficient-evidence fraction, and mean confidence from
 * identifyFused()'s confidence-weighted late fusion.
 *
 * Shape checks (exit non-zero on failure):
 *  - identical FaultSpec seeds produce identical ExtractionStats;
 *  - at drop rate 2%, resilient identification accuracy stays >= 0.6;
 *  - at probe flip rate 1e-3, the resilient clone's error stays
 *    within 2x of the fault-free clone's;
 *  - at flip rate 1e-2, disabling resilience measurably increases
 *    clone error;
 *  - with the timestamp channel jammed and the other three healthy,
 *    fused accuracy stays >= 0.7;
 *  - all-channels-healthy accuracy never drops below timestamp-only;
 *  - total channel blackout always reports insufficient evidence.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench/workloads.hh"
#include "core/decepticon.hh"
#include "extraction/cloner.hh"
#include "fault/channel.hh"
#include "fault/fault.hh"
#include "gpusim/emission.hh"
#include "gpusim/trace_generator.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "sched/sched.hh"
#include "util/table.hh"

using namespace decepticon;

namespace {

struct CloneOutcome
{
    double error = 0.0; ///< mean |clone - victim| per parameter
    extraction::ExtractionStats stats;
    extraction::ProbeStats probe;
    extraction::ReliabilityStats reliability;
    fault::FaultCounters faults;
};

bool
sameStats(const CloneOutcome &a, const CloneOutcome &b)
{
    return a.stats.bitsChecked == b.stats.bitsChecked &&
           a.stats.weightsSkipped == b.stats.weightsSkipped &&
           a.stats.baselineFallbackWeights ==
               b.stats.baselineFallbackWeights &&
           a.reliability.retries == b.reliability.retries &&
           a.reliability.voteReads == b.reliability.voteReads &&
           a.reliability.probeFailures == b.reliability.probeFailures &&
           a.reliability.fallbackBits == b.reliability.fallbackBits &&
           a.reliability.exhaustedBits == b.reliability.exhaustedBits;
}

} // anonymous namespace

int
main()
{
    std::cout << "=== Robust extraction sweep (unreliable channels) "
                 "===\n";

    // Every sweep point lands in this registry (via the stat structs'
    // toMetrics) and is dumped as BENCH_robust_extraction_sweep.json.
    obs::MetricsRegistry bench_reg;

    // Arm the global registry for the whole sweep so the pipeline's
    // StageTimers accumulate per-stage latency histograms; the end of
    // main() folds their quantiles into bench_reg as
    // sweep.stage.<stage>.p50_micros / .p99_micros gauges.
    {
        obs::ObsConfig ocfg;
        ocfg.metricsEnabled = true;
        obs::configure(ocfg);
    }
    const auto point_label = [](const char *part, double knob,
                                const char *suffix) {
        std::ostringstream oss;
        oss << "sweep." << part << "." << knob;
        if (suffix[0] != '\0')
            oss << "." << suffix;
        return oss.str();
    };

    // ---- Part A: identification under trace-capture faults ----
    zoo::ModelZoo pool = zoo::ModelZoo::buildDefault(11, 6, 12);
    core::DecepticonOptions dopts;
    dopts.datasetOptions.imagesPerModel = 4;
    dopts.datasetOptions.resolution = 32;
    dopts.cnnOptions.epochs = 30;
    dopts.seed = 3;
    core::Decepticon pipeline(dopts);
    const double clean_acc = pipeline.trainExtractor(pool);

    const std::size_t kCaptures = 5;
    util::Table ta({"drop rate", "1-capture acc", "resilient acc"});
    double resilient_acc_low = 0.0;
    for (double drop : {0.0, 0.02, 0.10}) {
        fault::FaultSpec tspec;
        tspec.recordDropRate = drop;
        tspec.recordDuplicateRate = drop / 2.0;
        tspec.truncateProbability = drop > 0.0 ? 0.1 : 0.0;
        tspec.seed = 515;
        fault::FaultInjector tinj(tspec);

        std::size_t single_ok = 0, multi_ok = 0, total = 0;
        for (const auto *victim : pool.finetuned()) {
            const gpusim::TraceGenerator gen(victim->signature);
            const auto clean =
                gen.generate(victim->arch, 0xabcdefULL + total);
            core::MultiChannelCapture captures;
            for (std::size_t r = 0; r < kCaptures; ++r)
                captures.timestampCaptures.push_back(tinj.corruptTrace(
                    clean, total * kCaptures + r));

            const auto one =
                pipeline.identify(captures.timestampCaptures.front());
            single_ok +=
                one.pretrainedName == victim->pretrainedName ? 1 : 0;
            const auto multi = pipeline.identifyFused(captures);
            multi_ok +=
                multi.pretrainedName == victim->pretrainedName ? 1 : 0;
            ++total;
        }
        const double single_acc = static_cast<double>(single_ok) /
                                  static_cast<double>(total);
        const double multi_acc = static_cast<double>(multi_ok) /
                                 static_cast<double>(total);
        if (drop == 0.02)
            resilient_acc_low = multi_acc;
        ta.row()
            .cell(drop, 2)
            .cell(single_acc, 3)
            .cell(multi_acc, 3);
        const std::string label = point_label("drop", drop, "");
        bench_reg.setGauge(label + ".single_capture_acc", single_acc);
        bench_reg.setGauge(label + ".resilient_acc", multi_acc);
    }
    util::printBanner(std::cout,
                      "Level 1: identification vs trace-capture "
                      "faults (R=5 captures)");
    ta.printAscii(std::cout);
    std::cout << "clean (fault-free) extractor test accuracy: "
              << clean_acc << "\n";

    // ---- Part B: cloning under bit-probe faults ----
    const auto cfg = bench::benchConfig(4, 2);
    auto pretrained = bench::pretrainBackbone(cfg, 77);
    transformer::MarkovTask task(cfg.vocab, 2, cfg.maxSeqLen, 771, 4.0);
    auto victim = bench::fineTuneFrom(*pretrained, task,
                                      task.sample(160, 2), 5,
                                      bench::fineTuneOptions());
    const auto query = task.sample(40, 4).examples;

    // The victim is passed by reference because extraction exercises
    // its (non-const) forward caches; parallel sweep points therefore
    // get their own deep copy below.
    auto run_clone = [&](transformer::TransformerClassifier &vic,
                         double flip, bool resilient) {
        extraction::ClonerOptions copts;
        copts.policy.maxBitsPerWeight = 4;
        copts.policy.baseDist = 0.015;
        copts.policy.significance = 0.0001;
        copts.agreementTarget = 1.1; // extract everything
        extraction::DramGeometry geom;
        geom.hammerableRowFraction = 0.85;
        copts.dramGeometry = geom;
        copts.dramSeed = 9;
        if (flip > 0.0) {
            fault::FaultSpec spec;
            spec.probeFlipRate = flip;
            spec.transientFailureRate = flip;
            spec.seed = 4242;
            copts.faultSpec = spec;
        }
        copts.resilient = resilient;
        auto result = extraction::ModelCloner::extract(
            vic, *pretrained, query, copts);
        CloneOutcome out;
        out.error = bench::meanAbsParamDiff(vic, *result.clone);
        out.stats = result.extractionStats;
        out.probe = result.probeStats;
        out.reliability = result.reliability;
        out.faults = result.faultCounters;
        return out;
    };

    const CloneOutcome clean_run = run_clone(*victim, 0.0, false);

    // The four (flip rate, resilience) sweep points are independent
    // runs, so they double as the driver-level determinism check: run
    // them serially on a 1-lane pool, re-run them in parallel with a
    // per-point victim copy, and require identical outcomes.
    struct Combo
    {
        double flip;
        bool resilient;
    };
    const std::vector<Combo> combos = {
        {1e-3, false}, {1e-3, true}, {1e-2, false}, {1e-2, true}};

    sched::setThreads(1);
    std::vector<CloneOutcome> serial_runs;
    const auto serial_t0 = std::chrono::steady_clock::now();
    for (const Combo &c : combos)
        serial_runs.push_back(run_clone(*victim, c.flip, c.resilient));
    const double serial_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      serial_t0)
            .count();

    // At least 4 lanes so the equivalence check crosses real worker
    // threads even on a single-core host (where the env default is 1).
    sched::setThreads(std::max<std::size_t>(4, sched::hardwareThreads()));
    std::vector<CloneOutcome> runs(combos.size());
    const auto par_t0 = std::chrono::steady_clock::now();
    sched::parallelFor(combos.size(), 1, [&](std::size_t i) {
        transformer::TransformerClassifier victim_copy(*victim);
        runs[i] =
            run_clone(victim_copy, combos[i].flip, combos[i].resilient);
    });
    const double parallel_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      par_t0)
            .count();
    const std::size_t sweep_lanes = sched::configuredThreads();
    sched::setThreads(0); // back to the environment default

    bool sweep_par_ok = true;
    for (std::size_t i = 0; i < combos.size(); ++i)
        sweep_par_ok = sweep_par_ok &&
                       sameStats(runs[i], serial_runs[i]) &&
                       runs[i].error == serial_runs[i].error &&
                       runs[i].probe.hammerRounds ==
                           serial_runs[i].probe.hammerRounds &&
                       runs[i].faults.bitFlips ==
                           serial_runs[i].faults.bitFlips &&
                       runs[i].faults.probeFailures ==
                           serial_runs[i].faults.probeFailures;

    util::Table tb({"flip rate", "resilience", "clone error",
                    "error vs clean", "hammer rounds", "rounds vs clean",
                    "fallback bits"});
    double err_res_low = 0.0, err_res_high = 0.0, err_raw_high = 0.0;
    for (std::size_t i = 0; i < combos.size(); ++i) {
        const double flip = combos[i].flip;
        const bool resilient = combos[i].resilient;
        const CloneOutcome &out = runs[i];
        if (resilient && flip == 1e-3)
            err_res_low = out.error;
        if (resilient && flip == 1e-2)
            err_res_high = out.error;
        if (!resilient && flip == 1e-2)
            err_raw_high = out.error;
        const std::string label =
            point_label("flip", flip, resilient ? "res_on" : "res_off");
        out.stats.toMetrics(bench_reg, label + ".extract");
        out.probe.toMetrics(bench_reg, label + ".probe");
        out.reliability.toMetrics(bench_reg, label + ".reliability");
        bench_reg.setGauge(label + ".clone_error", out.error);
        bench_reg.setGauge(label + ".error_vs_clean",
                           out.error / clean_run.error);
        tb.row()
            .cell(flip, 4)
            .cell(resilient ? "on" : "off")
            .cell(out.error, 6)
            .cell(out.error / clean_run.error, 2)
            .cell(out.probe.hammerRounds)
            .cell(static_cast<double>(out.probe.hammerRounds) /
                      static_cast<double>(clean_run.probe.hammerRounds),
                  2)
            .cell(out.reliability.fallbackBits);
    }
    util::printBanner(std::cout,
                      "Level 2: clone error vs probe-fault rate "
                      "(hammerable rows = 0.85)");
    tb.printAscii(std::cout);
    std::cout << "fault-free clone error: " << clean_run.error << "\n";

    std::cout << "parallel sweep == serial sweep: "
              << (sweep_par_ok ? "ok" : "FAIL") << " (serial "
              << serial_seconds << " s, parallel " << parallel_seconds
              << " s on " << sweep_lanes << " lanes)\n";

    // ---- Part C: multi-modal fusion under channel blackouts ----
    // Sweep which evidence channels survive (timestamp / power /
    // thermal / profiler) crossed with side-channel fault severity,
    // and measure fused identification accuracy, the explicit
    // insufficient-evidence fraction, and mean decision confidence.
    struct ChannelConfig
    {
        const char *name;
        bool ts, power, thermal, profiler;
    };
    const ChannelConfig cconfigs[] = {
        {"all", true, true, true, true},
        {"ts_only", true, false, false, false},
        {"no_ts", false, true, true, true},
        {"power_only", false, true, false, false},
        {"profiler_only", false, false, false, true},
        {"none", false, false, false, false},
    };
    util::Table tc({"channels", "severity", "fused acc",
                    "insufficient", "mean conf"});
    double acc_all_clean = 0.0, acc_ts_only_clean = 0.0,
           acc_no_ts_clean = 0.0;
    double none_insufficient = 1.0;
    for (const auto &cc : cconfigs) {
        for (double severity : {0.0, 0.4}) {
            fault::MultiChannelFaultSpec mspec;
            mspec.seed = 0xfade;
            const auto side = [&](fault::Channel channel, bool on) {
                auto &s = mspec.at(channel);
                if (!on) {
                    s.jammed = true;
                    return;
                }
                s.dropoutRate = 0.3 * severity;
                s.truncateProbability = 0.5 * severity;
                s.noiseSigma = 0.3 * severity;
                s.quantStep = 0.05 * severity;
            };
            mspec.at(fault::Channel::Timestamp).jammed = !cc.ts;
            side(fault::Channel::Power, cc.power);
            side(fault::Channel::Thermal, cc.thermal);
            side(fault::Channel::Profiler, cc.profiler);
            fault::MultiChannelFaultModel mfaults(mspec);

            // Timestamp captures (when up) carry mild record faults
            // that worsen with severity, like Part A's sweep.
            fault::FaultSpec tspec2;
            tspec2.recordDropRate = 0.02 * (1.0 + severity);
            tspec2.recordDuplicateRate = 0.01;
            tspec2.seed = 616;
            fault::FaultInjector tsinj(tspec2);

            std::size_t ok = 0, insufficient = 0, total = 0;
            double conf_sum = 0.0;
            std::uint64_t cap_seed = 0;
            for (const auto *victim : pool.finetuned()) {
                const gpusim::TraceGenerator gen(victim->signature);
                const auto clean_trace =
                    gen.generate(victim->arch, 0x1ceULL + total);
                const auto power = gpusim::emitPowerTrace(
                    clean_trace, 0x1ceULL + total);
                const auto thermal = gpusim::emitThermalTrace(
                    clean_trace, 0x1ceULL + total);
                const auto counters = gpusim::emitProfilerCounters(
                    clean_trace, 0x1ceULL + total);
                core::MultiChannelCapture mc;
                for (std::size_t r = 0; r < 3; ++r) {
                    ++cap_seed;
                    if (cc.ts)
                        mc.timestampCaptures.push_back(
                            tsinj.corruptTrace(clean_trace, cap_seed));
                    mc.powerCaptures.push_back(mfaults.corrupt(
                        fault::Channel::Power, power, cap_seed));
                    mc.thermalCaptures.push_back(mfaults.corrupt(
                        fault::Channel::Thermal, thermal, cap_seed));
                    mc.profilerCaptures.push_back(mfaults.corrupt(
                        fault::Channel::Profiler, counters, cap_seed));
                }
                const auto res = pipeline.identifyFused(mc);
                if (res.insufficientEvidence)
                    ++insufficient;
                else if (res.pretrainedName == victim->pretrainedName)
                    ++ok;
                conf_sum += res.insufficientEvidence
                                ? 0.0
                                : (res.usedChannelFusion
                                       ? res.fusedConfidence
                                       : res.topProbability);
                ++total;
            }
            const double acc = static_cast<double>(ok) /
                               static_cast<double>(total);
            const double insufficient_frac =
                static_cast<double>(insufficient) /
                static_cast<double>(total);
            const double mean_conf =
                conf_sum / static_cast<double>(total);
            if (severity == 0.0) {
                if (std::string(cc.name) == "all")
                    acc_all_clean = acc;
                if (std::string(cc.name) == "ts_only")
                    acc_ts_only_clean = acc;
                if (std::string(cc.name) == "no_ts")
                    acc_no_ts_clean = acc;
            }
            if (std::string(cc.name) == "none")
                none_insufficient =
                    std::min(none_insufficient, insufficient_frac);
            tc.row()
                .cell(cc.name)
                .cell(severity, 1)
                .cell(acc, 3)
                .cell(insufficient_frac, 3)
                .cell(mean_conf, 3);
            std::ostringstream loss;
            loss << "sweep.fusion." << cc.name << "." << severity;
            bench_reg.setGauge(loss.str() + ".acc", acc);
            bench_reg.setGauge(loss.str() + ".insufficient_frac",
                               insufficient_frac);
            bench_reg.setGauge(loss.str() + ".mean_confidence",
                               mean_conf);
        }
    }
    util::printBanner(std::cout,
                      "Level 1: fused identification vs channel "
                      "availability (R=3 captures)");
    tc.printAscii(std::cout);

    // Determinism: identical FaultSpec seeds must replay identically.
    const CloneOutcome rep_a = run_clone(*victim, 1e-3, true);
    const CloneOutcome rep_b = run_clone(*victim, 1e-3, true);
    const bool det_ok =
        sameStats(rep_a, rep_b) &&
        rep_a.faults.bitFlips == rep_b.faults.bitFlips &&
        rep_a.faults.probeFailures == rep_b.faults.probeFailures &&
        rep_a.probe.hammerRounds == rep_b.probe.hammerRounds &&
        rep_a.error == rep_b.error;
    std::cout << "determinism (same seed -> same stats): "
              << (det_ok ? "ok" : "FAIL") << "\n";

    const bool id_ok = resilient_acc_low >= 0.6;
    const bool error_ok = err_res_low <= 2.0 * clean_run.error;
    const bool degrade_ok = err_raw_high > err_res_high;
    if (!id_ok)
        std::cout << "FAIL: resilient identification collapsed at 2% "
                     "drop rate\n";
    if (!error_ok)
        std::cout << "FAIL: resilient clone error beyond 2x fault-free "
                     "at flip 1e-3\n";
    if (!degrade_ok)
        std::cout << "FAIL: disabling resilience did not degrade the "
                     "clone\n";

    const bool fusion_no_ts_ok = acc_no_ts_clean >= 0.7;
    const bool fusion_healthy_ok = acc_all_clean >= acc_ts_only_clean;
    const bool fusion_blackout_ok = none_insufficient >= 1.0;
    if (!fusion_no_ts_ok)
        std::cout << "FAIL: fused identification below 0.7 with the "
                     "timestamp channel jammed\n";
    if (!fusion_healthy_ok)
        std::cout << "FAIL: all-channels-healthy accuracy fell below "
                     "timestamp-only\n";
    if (!fusion_blackout_ok)
        std::cout << "FAIL: total channel blackout did not report "
                     "insufficient evidence\n";

    if (!sweep_par_ok)
        std::cout << "FAIL: parallel sweep outcomes diverged from the "
                     "serial reference\n";

    bench_reg.setGauge("sweep.partb.serial_seconds", serial_seconds);
    bench_reg.setGauge("sweep.partb.parallel_seconds", parallel_seconds);
    bench_reg.setGauge("sweep.partb.speedup",
                       parallel_seconds > 0.0
                           ? serial_seconds / parallel_seconds
                           : 0.0);
    bench_reg.setGauge("sweep.partb.lanes",
                       static_cast<double>(sweep_lanes));
    bench_reg.setGauge("sweep.clean_clone_error", clean_run.error);
    bench_reg.setGauge("sweep.clean_extractor_acc", clean_acc);
    clean_run.stats.toMetrics(bench_reg, "sweep.clean.extract");
    clean_run.probe.toMetrics(bench_reg, "sweep.clean.probe");

    // Fold the global registry's stage histograms (filled by every
    // identify/extract call above) into the sweep snapshot, then stop
    // collecting. The per-stage p50/p99 table in EXPERIMENTS.md reads
    // from exactly these gauges.
    for (const char *stage : {"probe", "trace_capture", "classify",
                              "fuse", "extract"}) {
        const auto hist = obs::metrics().latency(
            std::string("stage.") + stage + ".micros");
        if (!hist || hist->total() == 0)
            continue;
        const std::string base = std::string("sweep.stage.") + stage;
        bench_reg.setGauge(base + ".p50_micros", hist->quantile(0.50));
        bench_reg.setGauge(base + ".p99_micros", hist->quantile(0.99));
        bench_reg.setGauge(base + ".samples",
                           static_cast<double>(hist->total()));
    }
    obs::configure(obs::ObsConfig{});
    {
        std::ofstream out("BENCH_robust_extraction_sweep.json");
        bench_reg.exportJson(out);
        out << "\n";
    }
    std::cout << "wrote BENCH_robust_extraction_sweep.json\n";
    return det_ok && id_ok && error_ok && degrade_ok &&
                   sweep_par_ok && fusion_no_ts_ok &&
                   fusion_healthy_ok && fusion_blackout_ok
               ? 0
               : 1;
}
