#include "zoo/procedural.hh"

#include <cassert>

#include "util/rng.hh"

namespace decepticon::zoo {

namespace {

/** Shape grid the family table cycles through. */
struct ShapePoint
{
    std::size_t layers;
    std::size_t hidden;
};

const ShapePoint kShapeGrid[] = {
    {2, 128}, {4, 256},  {4, 512},  {6, 256},  {6, 768},  {8, 512},
    {8, 768}, {12, 384}, {12, 768}, {12, 1024}, {24, 512}, {24, 1024},
};
constexpr std::size_t kNumShapes = std::size(kShapeGrid);

const gpusim::Developer kDevelopers[] = {
    gpusim::Developer::HuggingFace, gpusim::Developer::Nvidia,
    gpusim::Developer::Google,      gpusim::Developer::Meta,
    gpusim::Developer::Amazon,      gpusim::Developer::Community,
};

} // anonymous namespace

std::vector<ProceduralFamilySpec>
proceduralFamilies(std::size_t count)
{
    std::vector<ProceduralFamilySpec> out;
    out.reserve(count);
    for (std::size_t j = 0; j < count; ++j) {
        const ShapePoint &shape = kShapeGrid[j % kNumShapes];
        ProceduralFamilySpec spec;
        spec.family = "proc-fam" + std::to_string(j);
        // Grid revisits widen the population: every full cycle through
        // the shape grid bumps the sequence length, so family j and
        // family j + kNumShapes share encoder shape but not runtime
        // profile.
        spec.layers = shape.layers;
        spec.hidden = shape.hidden;
        spec.heads = std::max<std::size_t>(2, shape.hidden / 64);
        spec.seqLen = 128 + 64 * (j / kNumShapes);
        out.push_back(std::move(spec));
    }
    return out;
}

ModelZoo
buildProceduralZoo(const ProceduralZooOptions &opts)
{
    assert(opts.identities > 0);
    assert(opts.families > 0);
    const std::vector<ProceduralFamilySpec> families =
        proceduralFamilies(opts.families);

    const util::Rng root(opts.seed);
    ModelZoo zoo;
    for (std::size_t i = 0; i < opts.identities; ++i) {
        // Each identity draws from split(i): a pure function of
        // (seed, i), so the zoo's content does not depend on build
        // order and any identity can be re-derived in isolation.
        util::Rng rng = root.split(i);
        const ProceduralFamilySpec &fam = families[i % families.size()];

        ModelIdentity m;
        m.family = fam.family;
        m.sizeClass = "L" + std::to_string(fam.layers) + "h" +
                      std::to_string(fam.hidden);
        m.arch.numLayers = fam.layers;
        m.arch.hidden = fam.hidden;
        m.arch.numHeads = fam.heads;
        m.arch.seqLen = fam.seqLen;

        const auto dev =
            kDevelopers[rng.uniformInt(std::size(kDevelopers))];
        m.signature.developer = dev;
        if (dev == gpusim::Developer::Google) {
            m.signature.framework = gpusim::Framework::TensorFlow;
        } else if (dev == gpusim::Developer::Amazon) {
            m.signature.framework = gpusim::Framework::Mxnet;
        } else {
            m.signature.framework = rng.bernoulli(0.8)
                                        ? gpusim::Framework::PyTorch
                                        : gpusim::Framework::TensorFlow;
        }
        m.signature.useTensorCores = dev == gpusim::Developer::Nvidia;
        m.signature.useXla =
            m.signature.framework == gpusim::Framework::TensorFlow &&
            rng.bernoulli(0.4);
        m.signature.fusionLevel = static_cast<int>(rng.uniformInt(3));
        // Unique dialect per release keeps execution fingerprints
        // separable at any zoo size, exactly as release builds differ
        // in library versions and compile flags.
        m.signature.kernelDialect = static_cast<int>(i);

        m.vocabProfile.language = Language::English;
        m.vocabProfile.cased = rng.bernoulli(0.4);
        m.vocabProfile.richness = static_cast<int>(rng.uniformInt(3));

        m.name = "proc/" + fam.family + "-r" + std::to_string(i);
        m.pretrainedName = m.name;
        m.isPretrained = true;
        m.weightSeed = rng.nextU64();
        zoo.add(std::move(m));
    }
    return zoo;
}

} // namespace decepticon::zoo
