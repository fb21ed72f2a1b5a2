#include "zoo/vocab.hh"

#include <cassert>

namespace decepticon::zoo {

bool
respondsCorrectly(const VocabularyProfile &profile, const QueryProbe &probe)
{
    if (profile.language != probe.language)
        return false;
    if (probe.needsCasing && !profile.cased)
        return false;
    if (profile.richness < probe.minRichness)
        return false;
    return true;
}

std::vector<bool>
responseVector(const VocabularyProfile &profile,
               const std::vector<QueryProbe> &probes)
{
    std::vector<bool> out;
    out.reserve(probes.size());
    for (const auto &p : probes)
        out.push_back(respondsCorrectly(profile, p));
    return out;
}

std::vector<QueryProbe>
standardProbeSet()
{
    std::vector<QueryProbe> probes;
    // Plain-language probes: only same-language models answer.
    probes.push_back({"the cat sat on the [MASK]", Language::English,
                      false, 1});
    probes.push_back({"le chat est sur le [MASK]", Language::French,
                      false, 1});
    probes.push_back({"кошка сидит на [MASK]", Language::Russian,
                      false, 1});
    probes.push_back({"die Katze sitzt auf dem [MASK]", Language::German,
                      false, 1});
    // Rich-corpus vocabulary (the paper's BERT-vs-RoBERTa word list).
    for (const char *word :
         {"debugging", "capitalize", "cloves", "indignation", "hijab",
          "selfies", "misogynist", "acupuncture"}) {
        probes.push_back({std::string("define: ") + word,
                          Language::English, false, 2});
    }
    // Casing-sensitive words (company vs fruit).
    probes.push_back({"Apple released a new phone", Language::English,
                      true, 1});
    probes.push_back({"Bill paid the bill", Language::English, true, 1});
    probes.push_back({"Turkey borders Greece", Language::English, true, 1});
    return probes;
}

std::size_t
responseDistance(const std::vector<bool> &a, const std::vector<bool> &b)
{
    assert(a.size() == b.size());
    std::size_t d = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i] != b[i])
            ++d;
    }
    return d;
}

std::vector<QueryProbe>
buildDiscriminativeProbeSet(const std::vector<VocabularyProfile> &profiles,
                            const std::vector<QueryProbe> &universe)
{
    // Per-probe response bit for every profile.
    std::vector<std::vector<bool>> responds(universe.size());
    for (std::size_t p = 0; p < universe.size(); ++p) {
        responds[p].reserve(profiles.size());
        for (const auto &profile : profiles)
            responds[p].push_back(
                respondsCorrectly(profile, universe[p]));
    }

    // Pairs that some probe can separate and no chosen probe does yet.
    std::vector<std::pair<std::size_t, std::size_t>> open;
    for (std::size_t i = 0; i < profiles.size(); ++i) {
        for (std::size_t j = i + 1; j < profiles.size(); ++j) {
            if (profiles[i] == profiles[j])
                continue; // inseparable twins
            for (std::size_t p = 0; p < universe.size(); ++p) {
                if (responds[p][i] != responds[p][j]) {
                    open.emplace_back(i, j);
                    break;
                }
            }
        }
    }

    std::vector<QueryProbe> chosen;
    std::vector<bool> used(universe.size(), false);
    while (!open.empty()) {
        // Greedy: the probe separating the most open pairs.
        std::size_t best = universe.size();
        std::size_t best_split = 0;
        for (std::size_t p = 0; p < universe.size(); ++p) {
            if (used[p])
                continue;
            std::size_t split = 0;
            for (const auto &[i, j] : open)
                split += responds[p][i] != responds[p][j] ? 1 : 0;
            if (split > best_split) {
                best_split = split;
                best = p;
            }
        }
        if (best == universe.size())
            break; // nothing separates the rest (shouldn't happen)
        used[best] = true;
        chosen.push_back(universe[best]);
        std::vector<std::pair<std::size_t, std::size_t>> still_open;
        for (const auto &[i, j] : open) {
            if (responds[best][i] == responds[best][j])
                still_open.emplace_back(i, j);
        }
        open = std::move(still_open);
    }
    return chosen;
}

std::vector<QueryProbe>
buildDiscriminativeProbeSet(const std::vector<VocabularyProfile> &profiles)
{
    return buildDiscriminativeProbeSet(profiles, standardProbeSet());
}

} // namespace decepticon::zoo
