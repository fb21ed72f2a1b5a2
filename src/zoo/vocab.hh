/**
 * @file
 * Vocabulary/training-data profile of a model release and the query
 * probes that expose it. The paper (Secs. 4.2, 5.3) shows that models
 * with indistinguishable architecture hints — e.g. BERT vs CamemBERT
 * vs RuBERT, cased vs uncased, BERT vs RoBERTa's richer corpus — can
 * be told apart by a compiled set of queries: other-language inputs,
 * corpus-specific vocabulary, and casing-sensitive words.
 */

#ifndef DECEPTICON_ZOO_VOCAB_HH
#define DECEPTICON_ZOO_VOCAB_HH

#include <cstdint>
#include <string>
#include <vector>

namespace decepticon::zoo {

/** Training-corpus language of a release. */
enum class Language
{
    English,
    French,  // CamemBERT-style
    Russian, // RuBERT-style
    German,
};

/** What a model was trained on, as exposed through its predictions. */
struct VocabularyProfile
{
    Language language = Language::English;
    /** Cased models distinguish "Apple" from "apple". */
    bool cased = false;
    /**
     * Corpus richness tier: 1 = BERT-style corpus, 2 = RoBERTa-style
     * larger corpus covering rarer vocabulary (the paper's
     * {debugging, hijab, selfies, ...} probe words).
     */
    int richness = 1;

    bool operator==(const VocabularyProfile &) const = default;
};

/** One probe query with the capabilities needed to answer it. */
struct QueryProbe
{
    std::string text;
    Language language = Language::English;
    /** True if the answer hinges on case distinctions. */
    bool needsCasing = false;
    /** Minimum corpus richness needed to answer correctly. */
    int minRichness = 1;
};

/**
 * Deterministic response simulation: does a model with the given
 * profile answer the probe correctly?
 */
bool respondsCorrectly(const VocabularyProfile &profile,
                       const QueryProbe &probe);

/** Bit vector of responses over a probe set. */
std::vector<bool> responseVector(const VocabularyProfile &profile,
                                 const std::vector<QueryProbe> &probes);

/**
 * The standard probe set Decepticon's input-dependent variant detector
 * uses: per-language queries, rich-corpus vocabulary (RoBERTa vs BERT),
 * and casing-sensitive words (paper Sec. 5.3).
 */
std::vector<QueryProbe> standardProbeSet();

/** Hamming distance between two response vectors. */
std::size_t responseDistance(const std::vector<bool> &a,
                             const std::vector<bool> &b);

/**
 * Compile a minimal-ish probe list that distinguishes every
 * distinguishable pair of candidate profiles — the paper's attacker
 * builds his query set from the candidates' known differences
 * (vocabulary files, languages, casing). Greedy set cover over the
 * probe universe: repeatedly pick the probe separating the most
 * still-confused pairs. Pairs with identical profiles are inherently
 * inseparable and are ignored.
 *
 * @param profiles candidate vocabulary profiles
 * @param universe probe pool to select from (standardProbeSet() by
 *        default)
 * @return the selected probes, in selection order
 */
std::vector<QueryProbe> buildDiscriminativeProbeSet(
    const std::vector<VocabularyProfile> &profiles,
    const std::vector<QueryProbe> &universe);

/** Overload using the standard probe universe. */
std::vector<QueryProbe> buildDiscriminativeProbeSet(
    const std::vector<VocabularyProfile> &profiles);

} // namespace decepticon::zoo

#endif // DECEPTICON_ZOO_VOCAB_HH
