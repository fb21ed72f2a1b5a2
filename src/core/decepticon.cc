#include "core/decepticon.hh"

#include <algorithm>
#include <array>
#include <cassert>

#include "fingerprint/index/embedding.hh"
#include "gpusim/emission.hh"
#include "gpusim/trace_generator.hh"
#include "obs/obs.hh"
#include "sched/sched.hh"
#include "sidechan/features.hh"
#include "trace/repair.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace decepticon::core {

namespace {

/** Candidates forwarded to the variant detector. */
constexpr std::size_t kTopK = 3;
/**
 * Candidates whose probability is within this factor of the top
 * candidate count as ambiguous and trigger query probing.
 */
constexpr double kAmbiguityRatio = 0.5;
/** Minimum calibrated fusion confidence for a "fused" verdict; below
 *  it the fused label is adopted as best effort. */
constexpr double kFusionMinConfidence = 0.35;
/** Series captures shorter than this carry too little signal to vote
 *  (power/thermal samples; profiler vectors are exempt). */
constexpr std::size_t kMinSeriesSamples = 8;

} // anonymous namespace

Decepticon::Decepticon(const DecepticonOptions &opts)
    : opts_(opts), probes_(zoo::standardProbeSet())
{
}

void
Decepticon::setClasses(const zoo::ModelZoo &candidate_pool,
                       std::vector<std::string> names)
{
    classNames_ = std::move(names);
    classProfiles_.clear();
    classProfiles_.reserve(classNames_.size());
    for (const auto &name : classNames_) {
        const zoo::ModelIdentity *m = candidate_pool.byName(name);
        assert(m != nullptr);
        classProfiles_.push_back(m->vocabProfile);
    }
}

double
Decepticon::trainExtractor(const zoo::ModelZoo &candidate_pool)
{
    if (opts_.indexZooThreshold > 0 &&
        candidate_pool.pretrainedCount() >= opts_.indexZooThreshold)
        return trainIndexed(candidate_pool);
    index_.reset();

    auto sp = obs::span("level1.train_extractor");
    fingerprint::DatasetOptions ds_opts = opts_.datasetOptions;
    ds_opts.seed = opts_.seed;
    const fingerprint::FingerprintDataset dataset =
        fingerprint::buildDataset(candidate_pool, ds_opts);
    assert(!dataset.samples.empty());

    setClasses(candidate_pool, dataset.classNames);

    auto [train, test] = dataset.split(0.8, opts_.seed ^ 0x5eedULL);
    cnn_ = std::make_unique<fingerprint::FingerprintCnn>(
        dataset.resolution, dataset.numClasses(), opts_.seed ^ 0xc44ULL);
    cnn_->train(train, opts_.cnnOptions);

    const double cnn_accuracy = cnn_->evaluate(test);

    // Side channels: each profiling run also yields a power trace, a
    // thermal envelope and a profiler counter vector. One lightweight
    // classifier per channel; its held-out accuracy becomes the
    // channel's reliability prior in the fusion engine.
    auto ch_span = obs::span("level1.train_channels");

    // Two profiling runs per zoo model. The run seeds are drawn
    // serially in (class, model) order; trace generation, emission
    // and feature extraction are pure per run (the emitters split
    // their noise streams from the run seed), so the models fill
    // independent slots in parallel, each building its generator once
    // for both runs.
    struct ProfileRun
    {
        const zoo::ModelIdentity *model;
        std::uint64_t runSeed;
        int label;
    };
    constexpr std::size_t kRunsPerModel = 2;
    std::vector<ProfileRun> runs;
    util::Rng trace_rng(opts_.seed ^ 0x5e9ULL);
    for (std::size_t c = 0; c < classNames_.size(); ++c) {
        for (const auto &model : candidate_pool.models()) {
            if (model.pretrainedName != classNames_[c])
                continue;
            for (std::size_t r = 0; r < kRunsPerModel; ++r)
                runs.push_back({&model, trace_rng.nextU64(),
                                static_cast<int>(c)});
        }
    }

    constexpr fault::Channel kSeriesChannels[] = {
        fault::Channel::Power,
        fault::Channel::Thermal,
        fault::Channel::Profiler,
    };
    std::array<std::vector<std::vector<float>>, 3> feats;
    for (auto &f : feats)
        f.resize(runs.size());
    sched::parallelFor(runs.size() / kRunsPerModel, 1, [&](std::size_t m) {
        const gpusim::TraceGenerator gen(
            runs[m * kRunsPerModel].model->signature);
        for (std::size_t i = m * kRunsPerModel;
             i < (m + 1) * kRunsPerModel; ++i) {
            const ProfileRun &run = runs[i];
            const gpusim::KernelTrace t =
                gen.generate(run.model->arch, run.runSeed);
            feats[0][i] = sidechan::channelFeatures(
                fault::Channel::Power,
                gpusim::emitPowerTrace(t, run.runSeed));
            feats[1][i] = sidechan::channelFeatures(
                fault::Channel::Thermal,
                gpusim::emitThermalTrace(t, run.runSeed));
            feats[2][i] = sidechan::channelFeatures(
                fault::Channel::Profiler,
                gpusim::emitProfilerCounters(t, run.runSeed));
        }
    });

    fusion_ = std::make_unique<sidechan::FusionEngine>(classNames_.size());
    fusion_->setReliabilityPrior(fault::Channel::Timestamp, cnn_accuracy);
    for (std::size_t s = 0; s < 3; ++s) {
        const fault::Channel channel = kSeriesChannels[s];
        // Every model contributed two consecutive profiling runs:
        // the first trains the channel classifier, the second is
        // held out and becomes the channel's reliability prior.
        std::vector<std::vector<float>> train_f, held_f;
        std::vector<int> train_y, held_y;
        for (std::size_t i = 0; i < runs.size(); ++i) {
            auto &dst_f = (i % 2 == 0) ? train_f : held_f;
            auto &dst_y = (i % 2 == 0) ? train_y : held_y;
            dst_f.push_back(feats[s][i]);
            dst_y.push_back(runs[i].label);
        }
        auto &clf = channelClassifiers_[static_cast<std::size_t>(channel)];
        clf = std::make_unique<sidechan::ChannelClassifier>(
            channel, sidechan::featureDim(channel), classNames_.size(),
            opts_.seed ^ (0xabcdULL + 0x101ULL * s));
        clf->train(train_f, train_y);
        fusion_->setReliabilityPrior(channel, clf->evaluate(held_f, held_y));
    }
    return cnn_accuracy;
}

double
Decepticon::trainIndexed(const zoo::ModelZoo &candidate_pool)
{
    auto sp = obs::span("level1.train_index");

    // Indexed mode replaces the CNN stack wholesale; stale exhaustive
    // state must not leak across retrains.
    cnn_.reset();
    fusion_.reset();
    for (auto &clf : channelClassifiers_)
        clf.reset();

    setClasses(candidate_pool, candidate_pool.lineageNames());
    assert(!classNames_.empty());
    const std::size_t num_classes = classNames_.size();
    constexpr std::size_t per_class = fingerprint::kIndexProfilesPerLineage;

    // Per-run seeds are drawn serially in (class, profile) order (the
    // §9 serial-schedule rule), the held-out run's seed last per class.
    // One job per class builds the lineage's trace generator once and
    // runs all three profiles; trace generation and embedding are pure
    // per job and fill private slots in parallel.
    struct ClassJob
    {
        const zoo::ModelIdentity *model;
        std::array<std::uint64_t, per_class> refSeeds;
        std::uint64_t heldSeed;
    };
    std::vector<ClassJob> jobs(num_classes);
    util::Rng trace_rng(opts_.seed ^ 0x1d9e55ULL);
    for (std::size_t c = 0; c < num_classes; ++c) {
        jobs[c].model = candidate_pool.byName(classNames_[c]);
        for (std::uint64_t &seed : jobs[c].refSeeds)
            seed = trace_rng.nextU64();
        jobs[c].heldSeed = trace_rng.nextU64();
    }

    std::vector<std::vector<float>> ref_embs(num_classes * per_class);
    std::vector<std::vector<float>> held_embs(num_classes);
    sched::parallelFor(num_classes, 1, [&](std::size_t c) {
        const ClassJob &job = jobs[c];
        const gpusim::TraceGenerator gen(job.model->signature);
        for (std::size_t p = 0; p < per_class; ++p)
            ref_embs[c * per_class + p] = fingerprint::traceEmbedding(
                gen.generate(job.model->arch, job.refSeeds[p]));
        held_embs[c] = fingerprint::traceEmbedding(
            gen.generate(job.model->arch, job.heldSeed));
    });
    std::vector<std::size_t> ref_class(ref_embs.size());
    for (std::size_t i = 0; i < ref_embs.size(); ++i)
        ref_class[i] = i / per_class;

    index_ = std::make_unique<fingerprint::FingerprintIndex>();
    index_->build(std::move(ref_embs), std::move(ref_class),
                  num_classes);
    obs::gaugeSet("zooindex.classes",
                  static_cast<double>(num_classes));
    obs::gaugeSet("zooindex.hash_bits",
                  static_cast<double>(index_->hashBits()));
    obs::gaugeSet("zooindex.tables",
                  static_cast<double>(index_->tableCount()));

    // Held-out accuracy: one unseen profiling run per lineage.
    std::vector<std::size_t> preds(num_classes);
    sched::parallelFor(num_classes, 1, [&](std::size_t c) {
        preds[c] = index_->classify(held_embs[c]);
    });
    std::size_t correct = 0;
    for (std::size_t i = 0; i < preds.size(); ++i) {
        if (preds[i] == i)
            ++correct;
    }
    const double accuracy = static_cast<double>(correct) /
                            static_cast<double>(preds.size());
    obs::gaugeSet("zooindex.heldout_accuracy", accuracy);
    return accuracy;
}

std::vector<std::vector<double>>
Decepticon::scoreTraces(
    const std::vector<const gpusim::KernelTrace *> &traces)
{
    assert((cnn_ || index_) && "trainExtractor must run first");

    // Each trace's scoring is pure, so the traces fill private slots in
    // parallel; anything that touches shared state runs serially in
    // queue order, so the rows are bit-identical at any lane count
    // (DESIGN §9).
    if (index_) {
        auto lookup_span = obs::span("level1.index_lookup");
        std::vector<std::vector<double>> probs(traces.size());
        std::vector<fingerprint::IndexLookupStats> stats(traces.size());
        sched::parallelFor(traces.size(), 1, [&](std::size_t i) {
            const std::vector<float> emb =
                fingerprint::traceEmbedding(*traces[i]);
            probs[i] =
                index_->scores(emb, index_->shortlist(emb, &stats[i]));
        });
        for (const auto &st : stats) {
            obs::count("zooindex.lookups");
            obs::observeLatency("zooindex.shortlist_hist",
                                static_cast<double>(st.shortlistClasses));
            obs::count("zooindex.bucket_probes", st.bucketProbes);
            if (st.exhaustiveFallback)
                obs::count("zooindex.exhaustive_fallbacks");
        }
        return probs;
    }

    auto raster_span = obs::span("level1.rasterize");
    std::vector<tensor::Tensor> images(traces.size());
    sched::parallelFor(traces.size(), 1, [&](std::size_t i) {
        images[i] = fingerprint::fingerprintImage(
            *traces[i], cnn_->resolution(),
            opts_.datasetOptions.cropIrregular);
    });
    raster_span.end();

    // probabilitiesBatch copies the CNN per chunk; its rows equal a
    // serial classProbabilities() call bit for bit. A lone image skips
    // the copy, which costs more than its forward pass.
    auto cnn_span = obs::span("level1.cnn_classify");
    if (images.size() == 1)
        return {cnn_->classProbabilities(images[0])};
    std::vector<const tensor::Tensor *> image_ptrs;
    image_ptrs.reserve(images.size());
    for (const auto &img : images)
        image_ptrs.push_back(&img);
    return fingerprint::probabilitiesBatch(*cnn_, image_ptrs);
}

IdentificationResult
Decepticon::identify(const gpusim::KernelTrace &victim_trace,
                     const std::function<std::vector<bool>()> &query_victim)
{
    return identifyBatch({&victim_trace}, {query_victim}).front();
}

IdentificationResult
Decepticon::resolveFromProbabilities(
    const std::vector<double> &probs,
    const std::function<std::vector<bool>()> &query_victim)
{
    IdentificationResult result;

    // Top-k by probability, descending, index-stable on ties, from the
    // already-computed probability vector so batch callers pay one
    // forward pass per victim.
    const std::vector<int> top = util::topKClasses(probs, kTopK);
    assert(!top.empty());

    for (int c : top)
        result.candidates.push_back(classNames_[static_cast<size_t>(c)]);
    result.topProbability = probs[static_cast<std::size_t>(top[0])];

    // Ambiguity: candidates whose probability is close to the top one
    // cannot be separated by architectural hints alone (e.g. BERT vs
    // CamemBERT from the same source). Fall back to query outputs.
    std::vector<int> ambiguous;
    for (int c : top) {
        if (probs[static_cast<std::size_t>(c)] >=
            kAmbiguityRatio * result.topProbability) {
            ambiguous.push_back(c);
        }
    }

    if (ambiguous.size() > 1 && query_victim) {
        result.usedQueryProbes = true;
        obs::count("level1.query_probe_rounds");
        obs::StageTimer probe_timer("probe");
        const std::vector<bool> victim_resp = query_victim();
        int best = ambiguous[0];
        std::size_t best_dist = probes_.size() + 1;
        for (int c : ambiguous) {
            const auto expected = zoo::responseVector(
                classProfiles_[static_cast<std::size_t>(c)], probes_);
            const std::size_t dist =
                zoo::responseDistance(expected, victim_resp);
            if (dist < best_dist) {
                best_dist = dist;
                best = c;
            }
        }
        result.pretrainedName = classNames_[static_cast<std::size_t>(best)];
    } else {
        result.pretrainedName = classNames_[static_cast<std::size_t>(top[0])];
    }
    obs::observeLatency("level1.confidence_pct",
                        100.0 * result.topProbability);
    return result;
}

std::vector<IdentificationResult>
Decepticon::identifyBatch(
    const std::vector<const gpusim::KernelTrace *> &traces,
    const std::vector<std::function<std::vector<bool>()>> &query_hooks)
{
    assert(query_hooks.empty() || query_hooks.size() == traces.size());

    obs::StageTimer stage_timer("classify");

    // The decision tail (ambiguity handling, query probing, confidence
    // gauges) mutates shared probe state and metrics, so it runs
    // serially in queue order.
    const std::vector<std::vector<double>> probs = scoreTraces(traces);
    std::vector<IdentificationResult> results;
    results.reserve(traces.size());
    for (std::size_t i = 0; i < traces.size(); ++i) {
        obs::count("level1.identifies");
        results.push_back(resolveFromProbabilities(
            probs[i], query_hooks.empty()
                          ? std::function<std::vector<bool>()>{}
                          : query_hooks[i]));
    }
    return results;
}

namespace {

/**
 * Soft sample-coverage quality for a series capture: approaches 1 for
 * long captures, shrinks toward 0 as truncation/dropout starve the
 * series. Profiler vectors are fixed-length and exempt.
 */
double
seriesQuality(std::size_t samples)
{
    return static_cast<double>(samples) /
           (static_cast<double>(samples) + 16.0);
}

/** Per-channel {available, dark} counter names, in fault::Channel
 *  order, so the disabled-telemetry path builds no string. */
constexpr const char *kChannelCounters[fault::kNumChannels][2] = {
    {"level1.channel.timestamp.available", "level1.channel.timestamp.dark"},
    {"level1.channel.power.available", "level1.channel.power.dark"},
    {"level1.channel.thermal.available", "level1.channel.thermal.dark"},
    {"level1.channel.profiler.available", "level1.channel.profiler.dark"},
};

} // namespace

IdentificationResult
Decepticon::identifyFused(
    const MultiChannelCapture &capture,
    const ResilientIdentifyOptions &ropts,
    const std::function<std::vector<bool>()> &query_victim)
{
    obs::count("level1.identifies");
    obs::StageTimer stage_timer("classify");

    IdentificationResult result;
    result.capturesUsed = capture.timestampCaptures.size() +
                          capture.powerCaptures.size() +
                          capture.thermalCaptures.size() +
                          capture.profilerCaptures.size();
    result.quorumAgreement = 0.0;
    result.channelsAvailable = 0;

    // ---- channel availability ------------------------------------
    // A channel is usable when at least one capture carries enough
    // signal to vote — and, for the side channels, when a trained
    // classifier exists for it (never on the indexed path).
    std::vector<const gpusim::KernelTrace *> ts_caps;
    for (const auto &t : capture.timestampCaptures) {
        if (!t.records.empty())
            ts_caps.push_back(&t);
    }
    const bool ts_usable = !ts_caps.empty();

    auto usable_series =
        [&](fault::Channel channel,
            const std::vector<std::vector<double>> &caps,
            std::size_t min_samples) {
            if (!fusion_ ||
                !channelClassifiers_[static_cast<std::size_t>(channel)])
                return false;
            for (const auto &s : caps) {
                if (s.size() >= min_samples)
                    return true;
            }
            return false;
        };
    const bool power_usable =
        usable_series(fault::Channel::Power, capture.powerCaptures,
                      kMinSeriesSamples);
    const bool thermal_usable =
        usable_series(fault::Channel::Thermal, capture.thermalCaptures,
                      kMinSeriesSamples);
    const bool profiler_usable = usable_series(
        fault::Channel::Profiler, capture.profilerCaptures, 1);

    const bool usable[fault::kNumChannels] = {ts_usable, power_usable,
                                              thermal_usable,
                                              profiler_usable};
    for (std::size_t c = 0; c < fault::kNumChannels; ++c) {
        obs::count(kChannelCounters[c][usable[c] ? 0 : 1]);
        if (usable[c]) {
            ++result.channelsAvailable;
            result.channelsUsed.emplace_back(
                fault::channelName(static_cast<fault::Channel>(c)));
        }
    }

    // ---- step 1: blackout -----------------------------------------
    if (result.channelsAvailable == 0) {
        // Total blackout: say so instead of guessing.
        result.insufficientEvidence = true;
        obs::count("level1.insufficient_evidence");
        obs::flightRecord(obs::FlightEventKind::Verdict, "classify",
                          "insufficient_blackout");
        obs::flightNoteError();
        return result;
    }

    // ---- step 2: the timestamp channel (consensus + quorum) ------
    std::vector<double> ts_probs;
    if (ts_usable) {
        std::vector<gpusim::KernelTrace> clean;
        clean.reserve(ts_caps.size());
        for (const auto *t : ts_caps)
            clean.push_back(*t);
        const gpusim::KernelTrace repaired = trace::repairTraces(clean);

        // The consensus trace and every raw capture each cast one
        // vote, so a single badly-mangled capture cannot swing the
        // answer the way it could swing a single classification. The
        // consensus row also goes through the single-trace decision
        // tail (top-k, ambiguity handling, query probing).
        std::vector<const gpusim::KernelTrace *> voters{&repaired};
        voters.insert(voters.end(), ts_caps.begin(), ts_caps.end());
        std::vector<std::vector<double>> probs = scoreTraces(voters);
        const IdentificationResult base =
            resolveFromProbabilities(probs[0], query_victim);
        result.pretrainedName = base.pretrainedName;
        result.topProbability = base.topProbability;
        result.candidates = base.candidates;
        result.usedQueryProbes = base.usedQueryProbes;

        std::vector<std::size_t> votes(classNames_.size(), 0);
        for (const auto &p : probs)
            ++votes[static_cast<std::size_t>(
                std::max_element(p.begin(), p.end()) - p.begin())];
        const auto win = std::max_element(votes.begin(), votes.end());
        result.quorumAgreement = static_cast<double>(*win) /
                                 static_cast<double>(voters.size());

        if (result.topProbability >= ropts.cnnConfidenceThreshold &&
            result.quorumAgreement >= kQuorumThreshold) {
            // Confident timestamp channel: adopt the quorum winner
            // unless query probes already disambiguated (stronger,
            // input-dependent evidence).
            if (!result.usedQueryProbes)
                result.pretrainedName =
                    classNames_[static_cast<std::size_t>(win - votes.begin())];
            obs::flightRecord(obs::FlightEventKind::Verdict, "classify",
                              "timestamp", result.quorumAgreement);
            return result;
        }
        ts_probs = std::move(probs[0]);
    }

    // ---- step 3: confidence-weighted channel fusion ---------------
    struct SeriesSet
    {
        fault::Channel channel;
        const std::vector<std::vector<double>> *caps;
        bool usable;
        std::size_t minSamples;
    };
    const SeriesSet series_sets[3] = {
        {fault::Channel::Power, &capture.powerCaptures, power_usable,
         kMinSeriesSamples},
        {fault::Channel::Thermal, &capture.thermalCaptures,
         thermal_usable, kMinSeriesSamples},
        {fault::Channel::Profiler, &capture.profilerCaptures,
         profiler_usable, 1},
    };

    if (power_usable || thermal_usable || profiler_usable) {
        // Feature extraction is pure per capture; the captures fill
        // independent slots in parallel. Classifier inference then
        // runs serially in channel order (the classifiers hold shared
        // forward caches).
        struct FeatJob
        {
            std::size_t set;
            const std::vector<double> *series;
        };
        std::vector<FeatJob> fjobs;
        for (std::size_t s = 0; s < 3; ++s) {
            if (!series_sets[s].usable)
                continue;
            for (const auto &ser : *series_sets[s].caps) {
                if (ser.size() >= series_sets[s].minSamples)
                    fjobs.push_back({s, &ser});
            }
        }
        std::vector<std::vector<float>> feats(fjobs.size());
        sched::parallelFor(fjobs.size(), 1, [&](std::size_t i) {
            feats[i] = sidechan::channelFeatures(
                series_sets[fjobs[i].set].channel, *fjobs[i].series);
        });

        std::vector<sidechan::ChannelEvidence> evidence;
        if (ts_usable) {
            sidechan::ChannelEvidence ev;
            ev.channel = fault::Channel::Timestamp;
            ev.available = true;
            ev.probs = ts_probs;
            ev.quality = result.quorumAgreement;
            evidence.push_back(std::move(ev));
        }
        for (std::size_t s = 0; s < 3; ++s) {
            if (!series_sets[s].usable)
                continue;
            sidechan::ChannelEvidence ev;
            ev.channel = series_sets[s].channel;
            ev.available = true;
            ev.probs.assign(classNames_.size(), 0.0);
            double quality_sum = 0.0;
            std::size_t n = 0;
            auto &clf = channelClassifiers_[static_cast<std::size_t>(
                series_sets[s].channel)];
            for (std::size_t i = 0; i < fjobs.size(); ++i) {
                if (fjobs[i].set != s)
                    continue;
                const std::vector<double> probs =
                    clf->classProbabilities(feats[i]);
                for (std::size_t k = 0; k < probs.size(); ++k)
                    ev.probs[k] += probs[k];
                quality_sum +=
                    series_sets[s].channel == fault::Channel::Profiler
                        ? 1.0
                        : seriesQuality(fjobs[i].series->size());
                ++n;
            }
            for (auto &p : ev.probs)
                p /= static_cast<double>(n);
            ev.quality = quality_sum / static_cast<double>(n);
            evidence.push_back(std::move(ev));
        }

        const sidechan::FusionDecision decision = fusion_->fuse(evidence);
        result.usedChannelFusion = true;
        result.fusedConfidence = decision.confidence;
        // The share of the registered evidence weight that arrived:
        // next to the confidence, it tells whether a weak fused verdict
        // lacked channels or had them disagree.
        obs::flightRecord(obs::FlightEventKind::Verdict, "classify",
                          "fusion_coverage", decision.coverage);

        // At or above the confidence bar the fused label is adopted
        // outright; below it, it is still the best available evidence
        // and is adopted at its honest low confidence.
        if (decision.verdict == sidechan::FusionVerdict::Identified) {
            const auto label = static_cast<std::size_t>(decision.label);
            result.pretrainedName = classNames_[label];
            if (!ts_usable) {
                // No timestamp posterior: the fused posterior is the
                // evidence trail, so the candidate list and top
                // probability come from it.
                result.topProbability = decision.fusedProbs[label];
                result.candidates.clear();
                for (int c :
                     util::topKClasses(decision.fusedProbs, kTopK))
                    result.candidates.push_back(
                        classNames_[static_cast<std::size_t>(c)]);
            }
            const bool confident =
                decision.confidence >= kFusionMinConfidence;
            obs::count(confident ? "level1.fusion_adoptions"
                                 : "level1.fusion_best_effort");
            const char *verdict = confident ? "fused" : "fused_best_effort";
            obs::flightRecord(obs::FlightEventKind::Verdict, "classify",
                              verdict, decision.confidence);
            return result;
        }
    }

    // ---- step 4: abstain ------------------------------------------
    result.insufficientEvidence = true;
    result.pretrainedName.clear();
    result.topProbability = 0.0;
    obs::count("level1.insufficient_evidence");
    obs::flightRecord(obs::FlightEventKind::Verdict, "classify",
                      "insufficient");
    obs::flightNoteError();
    return result;
}

std::function<std::vector<bool>()>
makeVictimQueryHook(const zoo::VocabularyProfile &victim_profile)
{
    return [victim_profile]() {
        // Built once per process: a campaign queries nearly every
        // classified victim, and the set never changes.
        static const std::vector<zoo::QueryProbe> probes =
            zoo::standardProbeSet();
        return zoo::responseVector(victim_profile, probes);
    };
}

} // namespace decepticon::core
