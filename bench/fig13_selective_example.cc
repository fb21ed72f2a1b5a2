/**
 * @file
 * Figure 13 reproduction: the worked selective-extraction example. A
 * pre-trained weight of 0.018 was fine-tuned to 0.01908; the sign,
 * exponent, and leading fraction bits are identical, and only the two
 * fraction bits whose place values (2^-10 ~ 0.00098 and 2^-11 ~
 * 0.00049) cover the expected ~0.002 gap need checking. The bench
 * prints the bit-level anatomy and runs Algorithm 1 on the example.
 */

#include <bitset>
#include <iostream>

#include "extraction/bitprobe.hh"
#include "extraction/ieee.hh"
#include "extraction/selective.hh"
#include "util/table.hh"
#include "zoo/weight_store.hh"

using namespace decepticon;

namespace {

std::string
fieldString(float v)
{
    const std::uint32_t bits = extraction::floatToBits(v);
    const std::bitset<1> sign(bits >> 31);
    const std::bitset<8> exponent(bits >> 23);
    const std::bitset<23> fraction(bits);
    return sign.to_string() + " | " + exponent.to_string() + " | " +
           fraction.to_string();
}

} // namespace

int
main()
{
    const float base = 0.018f;    // pre-trained weight
    const float actual = 0.01908f; // black-box fine-tuned weight

    util::printBanner(std::cout, "Fig. 13: IEEE-754 anatomy");
    std::cout << "pre-trained  0.018   = " << fieldString(base) << "\n"
              << "fine-tuned   0.01908 = " << fieldString(actual) << "\n";

    // Which bits differ?
    const std::uint32_t diff = extraction::floatToBits(base) ^
                               extraction::floatToBits(actual);
    std::cout << "differing bits       = "
              << std::bitset<32>(diff).to_string() << "\n";
    std::cout << "sign equal: "
              << (extraction::signBit(base) == extraction::signBit(actual))
              << ", exponent equal: "
              << (extraction::exponentField(base) ==
                  extraction::exponentField(actual))
              << "\n";

    // Place values the paper highlights.
    util::Table t({"fraction position k", "place value 2^(exp-k)",
                   "within the ~0.002 gap?"});
    for (int k = 1; k <= 6; ++k) {
        const double pv = extraction::fractionBitPlaceValue(base, k);
        t.row().cell(k).cell(pv, 7).cell(pv <= 0.002 ? "check" : "skip");
    }
    t.printAscii(std::cout);

    // Run Algorithm 1 on the example.
    zoo::WeightStore store;
    store.layers.push_back({"l0", {actual}});
    extraction::BitProbeChannel channel(store);
    extraction::ExtractionPolicy policy;
    policy.baseDist = 0.002;
    policy.uShapeAlpha = 0.0;
    policy.significance = 0.0002;
    extraction::SelectiveWeightExtractor extractor(policy);
    extraction::ExtractionStats stats;
    const float clone =
        extractor.extractWeight(base, channel, 0, 0, stats);

    std::cout << "\nAlgorithm 1: checked " << stats.bitsChecked
              << " bits (paper: 2); clone = " << clone
              << "; residual = " << std::abs(clone - actual)
              << " (below the 0.001 significance floor)\n";

    const bool shape_ok = stats.bitsChecked == 2 &&
                          std::abs(clone - actual) < 0.001;
    return shape_ok ? 0 : 1;
}
