/**
 * @file
 * Production-scale zoo suite: procedural identity generation, O(queue)
 * session sampling over huge zoos, and the sublinear fingerprint
 * index — determinism across lane counts, recall against exhaustive
 * re-ranking, fallback equivalence below the zoo-size threshold, and
 * campaign report byte-identity on the indexed path.
 */

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "campaign/campaign.hh"
#include "core/decepticon.hh"
#include "core/two_level.hh"
#include "fingerprint/index/embedding.hh"
#include "fingerprint/index/lsh.hh"
#include "gpusim/trace_generator.hh"
#include "obs/clock.hh"
#include "obs/obs.hh"
#include "sched/sched.hh"
#include "trace/repair.hh"
#include "transformer/classifier.hh"
#include "util/rng.hh"
#include "zoo/procedural.hh"
#include "zoo/session.hh"
#include "zoo/zoo.hh"

namespace dc = decepticon::core;
namespace dcp = decepticon::campaign;
namespace df = decepticon::fingerprint;
namespace dg = decepticon::gpusim;
namespace dtc = decepticon::trace;
namespace dtr = decepticon::transformer;
namespace dz = decepticon::zoo;
namespace sched = decepticon::sched;
namespace obs = decepticon::obs;

namespace {

const std::size_t kThreadCounts[] = {1, 2, 8};

/** Restore the environment-configured global pool on scope exit. */
struct PoolGuard
{
    ~PoolGuard() { sched::setThreads(0); }
};

/** A 256-lineage procedural pool with a trained fingerprint index,
 *  built once and shared read-only across the index tests. */
struct IndexHarness
{
    dz::ModelZoo zoo;
    std::unique_ptr<dc::Decepticon> level1;
    double trainAccuracy = 0.0;
};

IndexHarness &
indexHarness()
{
    static IndexHarness h = [] {
        sched::setThreads(1); // train at a fixed lane count
        IndexHarness x;
        dz::ProceduralZooOptions zopts;
        zopts.identities = 256;
        zopts.families = 16;
        zopts.seed = 11;
        x.zoo = dz::buildProceduralZoo(zopts);
        dc::DecepticonOptions opts;
        opts.seed = 4;
        opts.indexZooThreshold = 64;
        x.level1 = std::make_unique<dc::Decepticon>(opts);
        x.trainAccuracy = x.level1->trainExtractor(x.zoo);
        sched::setThreads(0);
        return x;
    }();
    return h;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// Procedural zoo generation.
// ---------------------------------------------------------------------

TEST(ProceduralZoo, FiveThousandIdentitiesDeterministicAndUnique)
{
    dz::ProceduralZooOptions zopts;
    zopts.identities = 5000;
    zopts.families = 32;
    zopts.seed = 9;
    const dz::ModelZoo a = dz::buildProceduralZoo(zopts);
    const dz::ModelZoo b = dz::buildProceduralZoo(zopts);

    ASSERT_EQ(a.models().size(), 5000u);
    EXPECT_EQ(a.pretrainedCount(), 5000u);

    std::set<std::string> names;
    for (std::size_t i = 0; i < a.models().size(); ++i) {
        const dz::ModelIdentity &m = a.models()[i];
        EXPECT_TRUE(m.isPretrained);
        EXPECT_EQ(m.name, b.models()[i].name);
        EXPECT_EQ(m.weightSeed, b.models()[i].weightSeed);
        EXPECT_EQ(m.signature.kernelDialect, static_cast<int>(i))
            << "every release carries a unique kernel dialect";
        names.insert(m.name);
    }
    EXPECT_EQ(names.size(), 5000u) << "identity names must be unique";

    // O(1) indexed accessors agree with the flat list.
    EXPECT_EQ(&a.pretrainedAt(17), &a.models()[17]);
    EXPECT_EQ(a.byName(a.models()[4321].name), &a.models()[4321]);
}

// ---------------------------------------------------------------------
// O(queue) session sampling.
// ---------------------------------------------------------------------

TEST(ProceduralZoo, SamplerIsDeterministicAndSkewedOnLargeZoo)
{
    dz::ProceduralZooOptions zopts;
    zopts.identities = 4096;
    zopts.families = 32;
    zopts.seed = 5;
    const dz::ModelZoo zoo = dz::buildProceduralZoo(zopts);

    dz::SessionSamplerOptions sopts;
    sopts.sessions = 64;
    sopts.skewPopularity = 0.9;
    const auto a = dz::sampleSessions(zoo, sopts, 42);
    const auto b = dz::sampleSessions(zoo, sopts, 42);
    ASSERT_EQ(a.size(), 64u);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].lineage, b[i].lineage);
        EXPECT_EQ(a[i].seed, b[i].seed);
        ASSERT_NE(a[i].lineage, nullptr);
        EXPECT_TRUE(a[i].lineage->isPretrained);
    }

    // Heavy skew over 4096 lineages: the head of the permuted ranking
    // dominates, so the queue touches a tiny slice of the zoo.
    std::map<std::string, std::size_t> counts;
    for (const auto &s : a)
        ++counts[s.lineage->name];
    std::size_t top = 0;
    for (const auto &kv : counts)
        top = std::max(top, kv.second);
    EXPECT_GE(top, 10u)
        << "skew=0.9 should concentrate draws on the head lineage";
    EXPECT_LT(counts.size(), 48u)
        << "64 skewed draws must not scatter across the whole zoo";
}

// ---------------------------------------------------------------------
// Fingerprint index: determinism and recall.
// ---------------------------------------------------------------------

TEST(ZooIndex, TrainsIndexInsteadOfCnnAboveThreshold)
{
    const IndexHarness &h = indexHarness();
    ASSERT_NE(h.level1->index(), nullptr);
    EXPECT_EQ(h.level1->index()->numClasses(), 256u);
    EXPECT_GT(h.trainAccuracy, 0.9)
        << "dialect-unique procedural releases should be near-"
           "perfectly separable from aggregate trace features";
}

TEST(ZooIndex, ShortlistsAreAPureFunctionOfTheQuery)
{
    const IndexHarness &h = indexHarness();
    const df::FingerprintIndex *idx = h.level1->index();
    ASSERT_NE(idx, nullptr);

    const dz::ModelIdentity &m = h.zoo.models()[31];
    const dg::KernelTrace trace =
        dg::TraceGenerator(m.signature).generate(m.arch, 0xfeedULL);
    const std::vector<float> emb = df::traceEmbedding(trace);

    df::IndexLookupStats s1, s2;
    const auto short1 = idx->shortlist(emb, &s1);
    const auto short2 = idx->shortlist(emb, &s2);
    EXPECT_EQ(short1, short2);
    EXPECT_EQ(s1.shortlistClasses, s2.shortlistClasses);
    EXPECT_EQ(s1.bucketProbes, s2.bucketProbes);
    EXPECT_TRUE(std::is_sorted(short1.begin(), short1.end()));
    EXPECT_LT(short1.size(), idx->numClasses())
        << "a shortlist that covers the whole zoo is not sublinear";
    EXPECT_EQ(idx->scores(emb, short1), idx->scores(emb, short1));
}

namespace {

/** FNV-1a over raw bytes, continuing from @p h. */
std::uint64_t
fnv1a(std::uint64_t h, const void *data, std::size_t bytes)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

/**
 * FNV-1a digest of the index layer on the 256-lineage harness: for 16
 * fixed fresh-seed queries, the shortlist ids, the bucket-probe count
 * and the raw bytes of scores(emb, shortlist(emb)). Pinned across
 * commits: a lookup rewrite must reproduce every shortlist and every
 * probability bit for bit.
 */
constexpr std::uint64_t kIndexLayerDigest = 0x420a84e9c8f3ba7dULL;

} // anonymous namespace

TEST(ZooIndex, LookupDigestPinnedAcrossCommits)
{
    const IndexHarness &h = indexHarness();
    const df::FingerprintIndex *idx = h.level1->index();
    ASSERT_NE(idx, nullptr);

    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (std::size_t q = 0; q < 16; ++q) {
        const dz::ModelIdentity &m = h.zoo.models()[q * 16 + q % 7];
        const std::vector<float> emb = df::traceEmbedding(
            dg::TraceGenerator(m.signature).generate(m.arch, 0x1de0 + q));
        df::IndexLookupStats stats;
        const std::vector<std::size_t> shortlist =
            idx->shortlist(emb, &stats);
        for (std::size_t c : shortlist) {
            const auto id = static_cast<std::uint64_t>(c);
            digest = fnv1a(digest, &id, sizeof id);
        }
        const auto probes = static_cast<std::uint64_t>(stats.bucketProbes);
        digest = fnv1a(digest, &probes, sizeof probes);
        const std::vector<double> probs = idx->scores(emb, shortlist);
        digest = fnv1a(digest, probs.data(),
                       probs.size() * sizeof(double));
    }
    EXPECT_EQ(digest, kIndexLayerDigest)
        << "0x" << std::hex << digest;
}

namespace {

/**
 * The scalar re-rank FingerprintIndex::scores must reproduce bit for
 * bit (the reference for its pair-block layout, as gemmNaive is for
 * the GEMM kernel): per candidate class, the minimum over its
 * references, in build order, of the squared L2 distance summed in
 * double over dimensions 0..23 in order; then the shortlist softmax
 * at the index's sharpness, 48.
 */
std::vector<double>
scalarScores(const std::vector<std::vector<float>> &refs,
             const std::vector<std::size_t> &ref_class,
             std::size_t num_classes, const std::vector<float> &query,
             const std::vector<std::size_t> &candidates)
{
    std::vector<double> dist(candidates.size());
    for (std::size_t k = 0; k < candidates.size(); ++k) {
        double best = -1.0;
        for (std::size_t i = 0; i < refs.size(); ++i) {
            if (ref_class[i] != candidates[k])
                continue;
            double s = 0.0;
            for (std::size_t d = 0; d < df::kTraceEmbeddingDim; ++d) {
                const double diff = static_cast<double>(query[d]) -
                                    static_cast<double>(refs[i][d]);
                s += diff * diff;
            }
            if (best < 0.0 || s < best)
                best = s;
        }
        dist[k] = best < 0.0 ? 1e9 : best;
    }
    double min_d = dist[0];
    for (double d : dist)
        min_d = std::min(min_d, d);
    double z = 0.0;
    for (double &d : dist) {
        d = std::exp(-48.0 * (d - min_d));
        z += d;
    }
    std::vector<double> probs(num_classes, 0.0);
    for (std::size_t k = 0; k < candidates.size(); ++k)
        probs[candidates[k]] = dist[k] / z;
    return probs;
}

bool
sameBits(const std::vector<double> &a, const std::vector<double> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

} // anonymous namespace

TEST(ZooIndex, BlockReRankMatchesScalarOracleBitForBit)
{
    // Nine classes of 1, 2 and 3 references, interleaved in the input;
    // class 5's third reference repeats its first (a distance tie).
    constexpr std::size_t kClasses = 9;
    decepticon::util::Rng rng(0x0b10c);
    auto random_embedding = [&rng] {
        std::vector<float> e(df::kTraceEmbeddingDim);
        for (float &v : e)
            v = static_cast<float>(rng.uniform());
        return e;
    };
    std::vector<std::vector<float>> refs;
    std::vector<std::size_t> ref_class;
    for (std::size_t round = 0; round < 3; ++round) {
        for (std::size_t c = 0; c < kClasses; ++c) {
            if (round >= 1 + c % 3)
                continue;
            refs.push_back(c == 5 && round == 2 ? refs[5]
                                                : random_embedding());
            ref_class.push_back(c);
        }
    }
    df::FingerprintIndex index;
    index.build(refs, ref_class, kClasses);

    std::vector<std::vector<float>> queries;
    for (int q = 0; q < 6; ++q)
        queries.push_back(random_embedding());
    queries.push_back(refs[3]); // a zero distance
    const std::vector<std::vector<std::size_t>> candidate_lists = {
        {0}, {4}, {1, 5, 8}, {0, 2, 3, 5, 7}, {1, 2, 3, 4, 5, 6, 8},
        index.allClasses()};
    for (std::size_t q = 0; q < queries.size(); ++q) {
        for (const auto &candidates : candidate_lists) {
            EXPECT_TRUE(sameBits(
                index.scores(queries[q], candidates),
                scalarScores(refs, ref_class, kClasses, queries[q],
                             candidates)))
                << "query " << q << ", " << candidates.size()
                << " candidates";
        }
        const std::vector<std::size_t> shortlist =
            index.shortlist(queries[q]);
        EXPECT_TRUE(sameBits(index.scores(queries[q], shortlist),
                             scalarScores(refs, ref_class, kClasses,
                                          queries[q], shortlist)))
            << "query " << q << " shortlist";
    }
}

TEST(ZooIndex, IdentifyBatchBitIdenticalAcrossLanes)
{
    PoolGuard guard;
    IndexHarness &h = indexHarness();
    ASSERT_NE(h.level1->index(), nullptr);

    std::vector<dg::KernelTrace> traces;
    for (std::size_t i = 0; i < 48; ++i) {
        const dz::ModelIdentity &m = h.zoo.models()[i];
        traces.push_back(dg::TraceGenerator(m.signature)
                             .generate(m.arch, 0x9990 + i));
    }

    sched::setThreads(1);
    std::vector<dc::IdentificationResult> serial;
    for (const auto &t : traces)
        serial.push_back(h.level1->identify(t));

    for (std::size_t threads : kThreadCounts) {
        sched::setThreads(threads);
        std::vector<const dg::KernelTrace *> ptrs;
        for (const auto &t : traces)
            ptrs.push_back(&t);
        const auto batch = h.level1->identifyBatch(ptrs);
        ASSERT_EQ(batch.size(), serial.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(batch[i].pretrainedName, serial[i].pretrainedName);
            EXPECT_EQ(batch[i].topProbability, serial[i].topProbability)
                << "probability must match bit for bit";
            EXPECT_EQ(batch[i].candidates, serial[i].candidates);
        }
    }
}

TEST(ZooIndex, FusedOnHealthyCapturesMatchesConsensusAndQuorum)
{
    PoolGuard guard;
    IndexHarness &h = indexHarness();
    const df::FingerprintIndex *idx = h.level1->index();
    ASSERT_NE(idx, nullptr);
    sched::setThreads(1);

    // Shortlist softmax scores over 256 lineages sit well below the
    // default confidence bar, so lower it until both verdicts occur.
    dc::ResilientIdentifyOptions ropts;
    ropts.cnnConfidenceThreshold = 0.1;
    std::size_t named = 0;
    for (std::size_t v = 0; v < 24; ++v) {
        const dz::ModelIdentity &m = h.zoo.models()[v * 7];
        const dg::TraceGenerator gen(m.signature);
        dc::MultiChannelCapture mc;
        for (std::uint64_t r = 0; r < 3; ++r)
            mc.timestampCaptures.push_back(
                gen.generate(m.arch, 0x5afe00 + 8 * v + r));

        // What the fused path owes: the consensus trace's single-trace
        // identification, plus one index vote per voter.
        const dg::KernelTrace consensus =
            dtc::repairTraces(mc.timestampCaptures);
        const dc::IdentificationResult base =
            h.level1->identify(consensus);
        std::vector<std::size_t> votes(idx->numClasses(), 0);
        ++votes[idx->classify(df::traceEmbedding(consensus))];
        for (const auto &t : mc.timestampCaptures)
            ++votes[idx->classify(df::traceEmbedding(t))];
        const auto win = std::max_element(votes.begin(), votes.end());
        const double share =
            static_cast<double>(*win) /
            static_cast<double>(1 + mc.timestampCaptures.size());
        const bool confident =
            base.topProbability >= ropts.cnnConfidenceThreshold &&
            share >= dc::kQuorumThreshold;

        const dc::IdentificationResult res =
            h.level1->identifyFused(mc, ropts);
        EXPECT_EQ(res.insufficientEvidence, !confident);
        EXPECT_EQ(res.pretrainedName,
                  confident ? h.level1->classNames()[static_cast<
                                  std::size_t>(win - votes.begin())]
                            : std::string());
        EXPECT_EQ(res.candidates, base.candidates);
        EXPECT_EQ(res.topProbability,
                  confident ? base.topProbability : 0.0);
        EXPECT_EQ(res.quorumAgreement, share);
        named += confident ? 1 : 0;
    }
    EXPECT_GT(named, 0u);
    EXPECT_LT(named, 24u);
}

TEST(ZooIndex, FusedIdentificationCountsOnce)
{
    PoolGuard guard;
    IndexHarness &h = indexHarness();
    const dz::ModelIdentity &m = h.zoo.models()[3];
    const dg::TraceGenerator gen(m.signature);
    dc::MultiChannelCapture mc;
    mc.timestampCaptures = {gen.generate(m.arch, 0xc0),
                            gen.generate(m.arch, 0xc1)};

    obs::ObsConfig cfg;
    cfg.metricsEnabled = true;
    obs::configure(cfg);
    const auto classifies = [] {
        const auto hist = obs::metrics().latency("stage.classify.micros");
        return hist ? hist->total() : 0;
    };
    const std::uint64_t identifies =
        obs::metrics().counter("level1.identifies");
    const std::uint64_t classified = classifies();
    h.level1->identifyFused(mc);
    EXPECT_EQ(obs::metrics().counter("level1.identifies") - identifies,
              1u);
    EXPECT_EQ(classifies() - classified, 1u);
    obs::shutdown();
}

TEST(ZooIndex, CapturesFromFourLineagesAbstain)
{
    PoolGuard guard;
    IndexHarness &h = indexHarness();
    dc::MultiChannelCapture mc;
    for (std::size_t i = 0; i < 4; ++i) {
        const dz::ModelIdentity &m = h.zoo.models()[i * 11];
        mc.timestampCaptures.push_back(
            dg::TraceGenerator(m.signature).generate(m.arch, 0x4e0 + i));
    }
    const dc::IdentificationResult res = h.level1->identifyFused(mc);
    EXPECT_TRUE(res.insufficientEvidence);
    EXPECT_TRUE(res.pretrainedName.empty());
}

TEST(ZooIndex, RecallWithinOnePointOfExhaustiveScoring)
{
    PoolGuard guard;
    IndexHarness &h = indexHarness();
    const df::FingerprintIndex *idx = h.level1->index();
    ASSERT_NE(idx, nullptr);
    sched::setThreads(1);

    // Fresh (unseen-seed) victim per lineage; class label == identity
    // index in an all-pretrained procedural zoo.
    const std::vector<std::size_t> all = idx->allClasses();
    std::size_t correct_indexed = 0, correct_exhaustive = 0;
    const std::size_t n = h.zoo.pretrainedCount();
    for (std::size_t c = 0; c < n; ++c) {
        const dz::ModelIdentity &m = h.zoo.models()[c];
        const dg::KernelTrace trace =
            dg::TraceGenerator(m.signature).generate(m.arch, 0x777 + c);
        const std::vector<float> emb = df::traceEmbedding(trace);

        if (idx->classify(emb) == c)
            ++correct_indexed;

        // Exhaustive baseline: the same re-rank applied to every
        // class instead of the shortlist.
        const std::vector<double> probs = idx->scores(emb, all);
        std::size_t best = 0;
        for (std::size_t k = 1; k < probs.size(); ++k) {
            if (probs[k] > probs[best])
                best = k;
        }
        if (best == c)
            ++correct_exhaustive;
    }
    const double acc_indexed = static_cast<double>(correct_indexed) /
                               static_cast<double>(n);
    const double acc_exhaustive =
        static_cast<double>(correct_exhaustive) / static_cast<double>(n);
    EXPECT_GT(acc_exhaustive, 0.8);
    EXPECT_GE(acc_indexed, acc_exhaustive - 0.01)
        << "the shortlist must not cost more than 1pt of accuracy "
           "against exhaustive matching";
}

// ---------------------------------------------------------------------
// Fallback below the zoo-size threshold.
// ---------------------------------------------------------------------

TEST(ZooIndex, SmallPoolFallsBackToExhaustiveCnnPath)
{
    PoolGuard guard;
    sched::setThreads(1);
    const dz::ModelZoo zoo = dz::ModelZoo::buildDefault(51, 4, 0);

    dc::DecepticonOptions base;
    base.datasetOptions.imagesPerModel = 3;
    base.datasetOptions.resolution = 32;
    base.cnnOptions.epochs = 10;
    base.seed = 2;
    dc::DecepticonOptions disabled = base;
    disabled.indexZooThreshold = 0; // indexed path off entirely

    dc::Decepticon with_threshold(base);
    dc::Decepticon without_index(disabled);
    const double acc_a = with_threshold.trainExtractor(zoo);
    const double acc_b = without_index.trainExtractor(zoo);

    // 4 lineages < threshold 256: both configurations must train the
    // exhaustive CNN path and agree bit for bit.
    EXPECT_EQ(with_threshold.index(), nullptr);
    EXPECT_EQ(without_index.index(), nullptr);
    EXPECT_EQ(acc_a, acc_b);

    for (const auto *m : zoo.pretrained()) {
        const dg::KernelTrace trace =
            dg::TraceGenerator(m->signature)
                .generate(m->arch, m->weightSeed ^ 0x33);
        const auto ra = with_threshold.identify(trace);
        const auto rb = without_index.identify(trace);
        EXPECT_EQ(ra.pretrainedName, rb.pretrainedName);
        EXPECT_EQ(ra.topProbability, rb.topProbability);
        EXPECT_EQ(ra.candidates, rb.candidates);
    }
}

// ---------------------------------------------------------------------
// Campaign over the indexed path.
// ---------------------------------------------------------------------

namespace {

dtr::TransformerConfig
tinyConfig()
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

/** A prepared indexed attack over a 48-lineage procedural pool. */
struct CampaignIndexHarness
{
    dz::ModelZoo zoo;
    std::unique_ptr<dc::TwoLevelAttack> attack;
};

CampaignIndexHarness &
campaignIndexHarness()
{
    static CampaignIndexHarness h = [] {
        sched::setThreads(1);
        CampaignIndexHarness x;
        dz::ProceduralZooOptions zopts;
        zopts.identities = 48;
        zopts.families = 12;
        zopts.seed = 21;
        x.zoo = dz::buildProceduralZoo(zopts);
        dc::TwoLevelOptions opts;
        opts.level1.seed = 2;
        opts.level1.indexZooThreshold = 16; // 48 >= 16 -> indexed
        x.attack = std::make_unique<dc::TwoLevelAttack>(opts);
        for (const auto *candidate : x.zoo.pretrained())
            x.attack->addCandidate(
                *candidate,
                std::make_shared<dtr::TransformerClassifier>(
                    tinyConfig(), candidate->weightSeed));
        x.attack->prepare();
        sched::setThreads(0);
        return x;
    }();
    return h;
}

/** 24 sessions; a few forced blackouts exercise the indexed fused
 *  path's honest abstention. */
std::vector<dz::VictimSessionSpec>
indexedCampaignSessions(const dz::ModelZoo &zoo)
{
    dz::SessionSamplerOptions sopts;
    sopts.sessions = 24;
    sopts.capturesPerVictim = 2;
    sopts.skewPopularity = 0.7;
    auto sessions = dz::sampleSessions(zoo, sopts, 77);
    for (std::size_t i = 0; i < sessions.size(); ++i) {
        sessions[i].blackout = (i % 8 == 5);
        sessions[i].traceFaultSeverity =
            sessions[i].blackout ? 1.0 : 0.0;
    }
    return sessions;
}

dcp::CampaignOptions
indexedCampaignOptions()
{
    dcp::CampaignOptions copts;
    copts.batchSize = 8;
    copts.querySetSize = 12;
    copts.victimConfig = tinyConfig();
    copts.seed = 7;
    copts.runLevel2 = false; // identification-scale campaign
    return copts;
}

/**
 * FNV-1a digest (util::hashString) of the indexed campaign report
 * under FakeClock, pinned across commits. A change that alters
 * campaign outcomes on purpose updates it and says so in CHANGES.md.
 */
constexpr std::uint64_t kIndexedReportDigest = 0x7040ed0baae91610ULL;

} // anonymous namespace

TEST(ZooIndex, CampaignReportByteIdenticalAcrossLanesOnIndexedPath)
{
    PoolGuard guard;
    CampaignIndexHarness &h = campaignIndexHarness();
    ASSERT_NE(h.attack->level1().index(), nullptr)
        << "48 lineages over threshold 16 must route through the index";

    // Pin wall time: latency attribution is the one legitimately
    // nondeterministic rollup input.
    obs::FakeClock clock;
    obs::setClockForTest(&clock);

    const auto sessions = indexedCampaignSessions(h.zoo);
    auto run = [&](std::size_t threads) {
        sched::setThreads(threads);
        dcp::CampaignDriver driver(*h.attack, indexedCampaignOptions());
        return driver.run(sessions).toJson();
    };

    const std::string reference = run(1);
    EXPECT_FALSE(reference.empty());
    for (std::size_t threads : kThreadCounts)
        EXPECT_EQ(run(threads), reference)
            << "indexed campaign report differs at " << threads
            << " lanes";

    obs::setClockForTest(nullptr);
}

TEST(ZooIndex, CampaignReportDigestPinnedAcrossCommits)
{
    PoolGuard guard;
    CampaignIndexHarness &h = campaignIndexHarness();
    obs::FakeClock clock;
    obs::setClockForTest(&clock);
    sched::setThreads(1);
    dcp::CampaignDriver driver(*h.attack, indexedCampaignOptions());
    const std::string json =
        driver.run(indexedCampaignSessions(h.zoo)).toJson();
    obs::setClockForTest(nullptr);
    EXPECT_EQ(decepticon::util::hashString(json.c_str()),
              kIndexedReportDigest)
        << json;
}
