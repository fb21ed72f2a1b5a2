/**
 * @file
 * Procedural large-zoo generation: expand a (family table, seed) pair
 * into thousands of pre-trained identities without storing weights for
 * any of them. The zoo is metadata only, which is what lets a 5,000+
 * identity zoo fit in memory (DESIGN.md §15).
 */

#ifndef DECEPTICON_ZOO_PROCEDURAL_HH
#define DECEPTICON_ZOO_PROCEDURAL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "zoo/zoo.hh"

namespace decepticon::zoo {

/** One procedural family: a shared architecture + ancestor lineage. */
struct ProceduralFamilySpec
{
    std::string family; ///< e.g. "proc-fam07"
    std::size_t layers = 4;
    std::size_t hidden = 256;
    std::size_t heads = 4;
    std::size_t seqLen = 128;
};

/** Knobs for buildProceduralZoo. */
struct ProceduralZooOptions
{
    /** Total pre-trained identities to generate. */
    std::size_t identities = 5000;
    /** Distinct families (shared-ancestor groups). */
    std::size_t families = 32;
    /** Root seed; the zoo is a pure function of (options, seed). */
    std::uint64_t seed = 1;
};

/**
 * The procedural family table: `count` specs cycling through a grid of
 * transformer shapes (layers x hidden), deterministic in count alone.
 */
std::vector<ProceduralFamilySpec> proceduralFamilies(std::size_t count);

/**
 * Expand options into a zoo of opts.identities pre-trained releases.
 * Identity i is a pure function of (family spec i % families,
 * Rng(seed).split(i)) — independent of build order — and carries a
 * unique kernelDialect so releases stay trace-separable. No weights
 * are materialized here.
 */
ModelZoo buildProceduralZoo(const ProceduralZooOptions &opts);

} // namespace decepticon::zoo

#endif // DECEPTICON_ZOO_PROCEDURAL_HH
