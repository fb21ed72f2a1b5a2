#include "extraction/cloner.hh"

#include <cassert>

#include "obs/obs.hh"
#include "transformer/trainer.hh"

namespace decepticon::extraction {

std::vector<nn::ParamRefs>
victimParamGroups(transformer::TransformerClassifier &victim)
{
    std::vector<nn::ParamRefs> groups{victim.embeddingParams()};
    for (std::size_t l = 0; l < victim.numLayers(); ++l)
        groups.push_back(victim.encoderParams(l));
    groups.push_back(victim.headParams());
    return groups;
}

std::vector<float>
groupWeights(const nn::ParamRefs &group)
{
    std::vector<float> out;
    for (const auto *p : group)
        out.insert(out.end(), p->value.vec().begin(), p->value.vec().end());
    return out;
}

zoo::WeightStore
snapshotGroups(const std::vector<nn::ParamRefs> &groups)
{
    assert(!groups.empty());
    zoo::WeightStore memory;
    memory.layers.resize(groups.size() - 1);
    for (std::size_t g = 0; g + 1 < groups.size(); ++g)
        memory.layers[g].w = groupWeights(groups[g]);
    memory.head.w = groupWeights(groups.back());
    return memory;
}

void
setGroupWeights(const nn::ParamRefs &group, const std::vector<float> &w)
{
    std::size_t off = 0;
    for (auto *p : group) {
        assert(off + p->size() <= w.size());
        std::copy(w.begin() + static_cast<long>(off),
                  w.begin() + static_cast<long>(off + p->size()),
                  p->value.vec().begin());
        off += p->size();
    }
    assert(off == w.size());
}

CloneResult
ModelCloner::extract(transformer::TransformerClassifier &victim,
                     const transformer::TransformerClassifier &pretrained,
                     const std::vector<transformer::Example> &query_set,
                     const ClonerOptions &opts)
{
    using transformer::Trainer;

    auto clone_span = obs::span("level2.clone");

    CloneResult result;

    // The victim's weight memory, reachable only via the bit channel
    // (idealized, or DRAM-constrained when a geometry is configured).
    // Extraction never writes the victim, so a snapshot holds the
    // floats every read would find in the live parameters.
    const zoo::WeightStore memory = snapshotGroups(victimParamGroups(victim));
    std::unique_ptr<DramWeightLayout> dram_layout;
    std::unique_ptr<BitProbeChannel> channel_holder;
    if (opts.dramGeometry) {
        dram_layout = std::make_unique<DramWeightLayout>(
            memory, *opts.dramGeometry, opts.dramSeed);
        channel_holder = std::make_unique<DramBitProbeChannel>(
            memory, *dram_layout);
    } else {
        channel_holder = std::make_unique<BitProbeChannel>(memory);
    }
    BitProbeChannel &physical = *channel_holder;

    // Unreliable-channel model: faults on the physical channel, an
    // optional retrying/voting prober in front of it.
    std::unique_ptr<fault::FaultInjector> injector;
    if (opts.faultSpec) {
        injector = std::make_unique<fault::FaultInjector>(*opts.faultSpec);
        physical.attachFaultInjector(injector.get());
    }
    SelectiveWeightExtractor extractor(opts.policy);

    // Clone starts as the pre-trained model with a head of the
    // victim's output width (the attacker sees the output dimension
    // from query responses).
    auto clone = std::make_unique<transformer::TransformerClassifier>(
        pretrained);
    const std::size_t num_classes = victim.config().numClasses;
    clone->resetHead(num_classes, /*seed=*/42);

    const std::size_t num_layers = clone->numLayers();
    const std::size_t head_group = num_layers + 1;

    auto clone_groups = victimParamGroups(*clone);

    // The graceful-degradation baseline is the clone's pre-extraction
    // state: the identified pre-trained weights plus the freshly reset
    // head — snapshot it before extraction mutates the groups.
    zoo::WeightStore baseline;
    std::unique_ptr<RetryingProber> prober;
    if (opts.resilient) {
        baseline = snapshotGroups(clone_groups);
        prober = std::make_unique<RetryingProber>(physical, &baseline);
    }
    BitProbeChannel &channel = prober ? *prober : physical;

    // Victim predictions on the query set (black-box API access).
    // Batched onto the sched pool: each prediction is independent, so
    // the agreement checks after every extracted layer parallelize.
    std::vector<std::vector<int>> query_tokens;
    query_tokens.reserve(query_set.size());
    for (const auto &ex : query_set)
        query_tokens.push_back(ex.tokens);
    const std::vector<int> victim_preds =
        transformer::predictBatch(victim, query_tokens);
    result.victimQueries += query_set.size();

    auto agreement_now = [&]() {
        return Trainer::agreement(
            transformer::predictBatch(*clone, query_tokens), victim_preds);
    };

    // Step 1: full extraction of the baseline-less task head.
    {
        auto sp = obs::span("level2.extract_head");
        auto head = extractor.extractHead(channel, head_group,
                                          memory.head.w.size(),
                                          result.extractionStats);
        setGroupWeights(clone_groups[head_group], head);
        result.agreementTrajectory.push_back(agreement_now());
    }

    // Step 2: encoder layers, last to first (Table 1 ordering).
    for (std::size_t l = num_layers; l >= 1; --l) {
        if (result.agreementTrajectory.back() >= opts.agreementTarget)
            break;
        auto sp = obs::span("level2.extract_layer");
        const auto base = groupWeights(clone_groups[l]);
        auto extracted = extractor.extractLayer(base, channel, l,
                                                result.extractionStats);
        setGroupWeights(clone_groups[l], extracted);
        ++result.layersExtracted;
        result.agreementTrajectory.push_back(agreement_now());
        obs::observeLatency("level2.layer_agreement_pct",
                            100.0 * result.agreementTrajectory.back());
    }

    // Step 3: embeddings, only if agreement is still short.
    if (result.agreementTrajectory.back() < opts.agreementTarget) {
        auto sp = obs::span("level2.extract_embeddings");
        const auto base = groupWeights(clone_groups[0]);
        auto extracted = extractor.extractLayer(base, channel, 0,
                                                result.extractionStats);
        setGroupWeights(clone_groups[0], extracted);
        result.agreementTrajectory.push_back(agreement_now());
    }

    // The physical channel carries the cost ledger (the prober charges
    // every attempt and backoff penalty on it).
    result.probeStats = physical.stats();
    if (prober)
        result.reliability = prober->reliability();
    if (injector) {
        result.faultCounters = injector->counters();
        physical.attachFaultInjector(nullptr);
    }
    result.clone = std::move(clone);

    obs::count("level2.clone_sessions");
    obs::count("level2.victim_queries", result.victimQueries);
    return result;
}

} // namespace decepticon::extraction
