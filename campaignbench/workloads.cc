#include "workloads.hh"

#include "zoo/procedural.hh"

namespace campaignbench {

namespace dc = decepticon;

namespace {

// Accuracy floors hold on every seed with a margin: they catch a
// speed-up that breaks identification, not seed-to-seed variation.
const std::vector<WorkloadSpec> kWorkloads = {
    {.name = "hot_repeat",
     .level2 = true,
     .indexPath = false,
     .accuracyFloor = 0.9,
     .sampler = {.sessions = 20000,
                 .capturesPerVictim = 2,
                 .skewPopularity = 0.7},
     // Nothing expires within one queue: the steady state.
     .cache = {.identityTtl = 20000, .cloneTtl = 20000}},
    {.name = "cold_clone",
     .level2 = true,
     .indexPath = false,
     .accuracyFloor = 0.8,
     .sampler = {.sessions = 1024,
                 .capturesPerVictim = 2,
                 .skewPopularity = 0.0},
     .cache = {.capacity = 0}},
    {.name = "faulty_index",
     .level2 = false,
     .indexPath = true,
     .accuracyFloor = 0.85,
     .sampler = {.sessions = 10000,
                 .capturesPerVictim = 3,
                 .blackoutFraction = 0.05,
                 .faultSeverity = 0.5,
                 .skewPopularity = 0.7},
     .cache = {}},
};

dc::transformer::TransformerConfig
victimConfig()
{
    dc::transformer::TransformerConfig cfg;
    cfg.vocab = 16;
    cfg.maxSeqLen = 8;
    cfg.hidden = 8;
    cfg.numLayers = 2;
    cfg.numHeads = 2;
    cfg.ffnDim = 16;
    cfg.numClasses = 2;
    return cfg;
}

/** FNV-1a of the workload name: decorrelates workload streams. */
std::uint64_t
nameHash(const WorkloadSpec &spec)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : spec.name)
        h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
    return h;
}

/** splitmix64 finalizer. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

} // anonymous namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &w : kWorkloads)
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> out;
    for (const WorkloadSpec &w : kWorkloads)
        out.push_back(w.name);
    return out;
}

std::unique_ptr<Environment>
setUp(const WorkloadSpec &spec)
{
    auto env = std::make_unique<Environment>();
    dc::core::TwoLevelOptions &topts = env->options;
    topts.level1.seed = 2;
    if (spec.indexPath) {
        dc::zoo::ProceduralZooOptions zopts;
        zopts.identities = 4096;
        zopts.families = 32;
        zopts.seed = 21;
        env->zoo = dc::zoo::buildProceduralZoo(zopts);
    } else {
        // The CNN level 1 of the campaign_throughput bench.
        env->zoo = dc::zoo::ModelZoo::buildDefault(51, 6, 0);
        topts.level1.datasetOptions.imagesPerModel = 6;
        topts.level1.datasetOptions.resolution = 32;
        topts.level1.cnnOptions.epochs = 30;
    }
    env->attack = std::make_unique<dc::core::TwoLevelAttack>(topts);
    const dc::transformer::TransformerConfig cfg = victimConfig();
    for (const auto *candidate : env->zoo.pretrained())
        env->attack->addCandidate(
            *candidate, std::make_shared<dc::transformer::TransformerClassifier>(
                            cfg, candidate->weightSeed));
    env->attack->prepare();
    return env;
}

std::vector<dc::zoo::VictimSessionSpec>
makeQueue(const WorkloadSpec &spec, const Environment &env,
          std::uint64_t seed)
{
    // Which lineage each queue slot serves (and which slots black out)
    // is part of the workload, so its cost does not hinge on which
    // release the seed happens to make most popular. The seed draws
    // everything per victim: trace noise, faults, heads, query sets.
    auto queue = dc::zoo::sampleSessions(env.zoo, spec.sampler, nameHash(spec));
    for (auto &session : queue)
        session.seed = mix(mix(seed) ^ session.seed);
    return queue;
}

dc::campaign::CampaignOptions
campaignOptions(const WorkloadSpec &spec, std::uint64_t seed)
{
    dc::campaign::CampaignOptions copts;
    copts.batchSize = 32;
    copts.querySetSize = 12;
    copts.victimConfig = victimConfig();
    copts.seed = mix(nameHash(spec) ^ seed);
    copts.runLevel2 = spec.level2;
    copts.cache = spec.cache;
    return copts;
}

} // namespace campaignbench
