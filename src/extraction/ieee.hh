/**
 * @file
 * IEEE-754 field manipulation for selective weight extraction (paper
 * Sec. 6.1.1 and the quantization discussion of Sec. 8). Bits are
 * numbered 31 (sign) down to 0; fraction bits are also addressed by
 * their 1-based position from the fraction MSB, matching the paper's
 * "k-th bit of the fraction" notation, whose place value is
 * 2^(exp - bias - k).
 */

#ifndef DECEPTICON_EXTRACTION_IEEE_HH
#define DECEPTICON_EXTRACTION_IEEE_HH

#include <cstdint>

namespace decepticon::extraction {

/** Parameters of a binary floating-point format. */
struct FloatFormat
{
    int exponentBits;
    int fractionBits;

    int bias() const { return (1 << (exponentBits - 1)) - 1; }
};

/** float32: 8-bit exponent, 23-bit fraction. */
constexpr FloatFormat kFloat32{8, 23};
/** float16: 5-bit exponent, 10-bit fraction. */
constexpr FloatFormat kFloat16{5, 10};
/** bfloat16: float32's exponent with a 7-bit fraction. */
constexpr FloatFormat kBfloat16{8, 7};

/** Raw bit pattern of a float. */
std::uint32_t floatToBits(float v);

/** Float from a raw bit pattern. */
float bitsFromFloat(std::uint32_t bits);

/** Sign bit (1 = negative). */
bool signBit(float v);

/** Biased exponent field of a float32. */
int exponentField(float v);

/** Unbiased exponent (exponentField - 127). */
int unbiasedExponent(float v);

/**
 * Bit (0/1) of v at fraction position k (1-based from the fraction
 * MSB). @pre 1 <= k <= 23
 */
bool fractionBit(float v, int k);

/**
 * Place value of fraction position k for a value with v's exponent:
 * 2^(unbiasedExponent(v) - k). This is the magnitude a single checked
 * bit contributes — the quantity Algorithm 1 compares against the
 * expected fine-tuning weight distance.
 */
double fractionBitPlaceValue(float v, int k);

/** The value 2^unbiasedExponent(v): the leading (implicit-1) term. */
double leadingPlaceValue(float v);

/**
 * Quantize a float32 to the given narrower format and back
 * (round-to-nearest-even on the dropped fraction bits). Models
 * fine-tuned checkpoints stored in float16/bfloat16.
 */
float quantizeTo(float v, const FloatFormat &fmt);

/**
 * Index of v's fraction position k within a 32-bit word (31 = sign).
 * fraction position k occupies word bit (23 - k).
 */
int fractionPosToWordBit(int k);

} // namespace decepticon::extraction

#endif // DECEPTICON_EXTRACTION_IEEE_HH
