#ifndef LHRS_GF_KERNELS_INTERNAL_H_
#define LHRS_GF_KERNELS_INTERNAL_H_

#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "gf/kernels.h"

// Shared machinery for the per-ISA kernel translation units. Everything
// here is self-contained (no dependency on GF256/GF65536 or lhrs_common):
// the kernels library sits below every other target, so lhrs_common's
// XorBuffer can forward into it without a dependency cycle.

namespace lhrs::gfk {

inline constexpr uint32_t kPoly8 = 0x11D;    // x^8+x^4+x^3+x^2+1.
inline constexpr uint32_t kPoly16 = 0x1100B;  // x^16+x^12+x^3+x+1.

/// Carry-less shift-and-add multiply: the reference product the table
/// builders are tested against (same polynomials and bit order as
/// GF256::Mul / GF65536::Mul). Too slow for the table builders themselves.
inline uint8_t GfMul8(uint8_t a, uint8_t b) {
  uint32_t acc = 0;
  uint32_t aa = a;
  for (uint32_t bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) acc ^= aa;
    aa <<= 1;
    if (aa & 0x100) aa ^= kPoly8;
  }
  return static_cast<uint8_t>(acc);
}

inline uint16_t GfMul16(uint16_t a, uint16_t b) {
  uint32_t acc = 0;
  uint32_t aa = a;
  for (uint32_t bb = b; bb != 0; bb >>= 1) {
    if (bb & 1) acc ^= aa;
    aa <<= 1;
    if (aa & 0x10000) aa ^= kPoly16;
  }
  return static_cast<uint16_t>(acc);
}

// Table building by linearity. Multiplication by a fixed coefficient c is
// GF(2)-linear, so c * i = c * (i & (i - 1)) ^ c * 2^ctz(i): every entry
// of a product table is one earlier entry XOR one basis product, and the
// basis c * 2^b is a chain of doublings (shift, conditional reduce). A
// table of N entries costs N XORs plus 8 or 16 doublings, where a
// shift-and-add multiply per entry costs up to 8 or 16 steps each. Every
// kernel call builds its tables, so on short payloads (parity deltas,
// 1-KiB record decodes) the build is a large share of the call.

/// basis[b] = coeff * 2^b over GF(2^8), b = 0..7.
inline void Basis8(uint8_t coeff, uint8_t basis[8]) {
  uint32_t x = coeff;
  for (uint32_t b = 0; b < 8; ++b) {
    basis[b] = static_cast<uint8_t>(x);
    x <<= 1;
    if (x & 0x100) x ^= kPoly8;
  }
}

/// basis[b] = coeff * 2^b over GF(2^16), b = 0..15.
inline void Basis16(uint16_t coeff, uint16_t basis[16]) {
  uint32_t x = coeff;
  for (uint32_t b = 0; b < 16; ++b) {
    basis[b] = static_cast<uint16_t>(x);
    x <<= 1;
    if (x & 0x10000) x ^= kPoly16;
  }
}

/// table[i] = sum of basis[b] over the set bits b of i, for i < n (n a
/// power of two no larger than 2^(number of basis entries)).
template <typename T>
inline void FillByLinearity(const T* basis, uint32_t n, T* table) {
  table[0] = 0;
  for (uint32_t i = 1; i < n; ++i) {
    table[i] = static_cast<T>(table[i & (i - 1)] ^ basis[std::countr_zero(i)]);
  }
}

/// row[b] = coeff * b for all 256 bytes — the word-wise GF(2^8) kernel's
/// L1-resident product row.
inline void BuildRow8(uint8_t coeff, uint8_t row[256]) {
  uint8_t basis[8];
  Basis8(coeff, basis);
  FillByLinearity(basis, 256, row);
}

/// 4-bit split tables for GF(2^8): product(b) = lo[b & 15] ^ hi[b >> 4].
/// 32 bytes per coefficient — one PSHUFB register pair.
struct Nib8Tables {
  uint8_t lo[16];
  uint8_t hi[16];
};

inline void BuildNib8(uint8_t coeff, Nib8Tables* t) {
  uint8_t basis[8];
  Basis8(coeff, basis);
  FillByLinearity(basis, 16, t->lo);
  FillByLinearity(basis + 4, 16, t->hi);
}

/// 4-bit split tables for GF(2^16). A symbol s = hi_byte:lo_byte splits
/// into four nibbles; the product accumulates one 16-bit contribution per
/// nibble, stored as separate low-byte/high-byte shuffle tables so the
/// SIMD kernels can keep the two product halves in separate registers:
///   prod_lo(s) = ll[n0]^lh[n1]^hl[n2]^hh[n3] (low byte), prod_hi likewise.
/// 128 bytes per coefficient.
struct Nib16Tables {
  // [nibble position 0..3][nibble value 0..15]; position 0 is bits 0-3.
  uint8_t prod_lo[4][16];
  uint8_t prod_hi[4][16];
};

inline void BuildNib16(uint16_t coeff, Nib16Tables* t) {
  uint16_t basis[16];
  Basis16(coeff, basis);
  for (uint32_t pos = 0; pos < 4; ++pos) {
    uint16_t prod[16];
    FillByLinearity(basis + 4 * pos, 16, prod);
    for (uint32_t i = 0; i < 16; ++i) {
      t->prod_lo[pos][i] = static_cast<uint8_t>(prod[i]);
      t->prod_hi[pos][i] = static_cast<uint8_t>(prod[i] >> 8);
    }
  }
}

/// 8-bit split tables for GF(2^16) — the word-wise tier's variant:
/// product(s) = lo[s & 0xFF] ^ hi[s >> 8]. 1 KiB per coefficient, still
/// L1-resident.
struct Split16Tables {
  uint16_t lo[256];
  uint16_t hi[256];
};

inline void BuildSplit16(uint16_t coeff, Split16Tables* t) {
  uint16_t basis[16];
  Basis16(coeff, basis);
  FillByLinearity(basis, 256, t->lo);
  FillByLinearity(basis + 8, 256, t->hi);
}

/// Scalar tail loops shared by the SIMD translation units (plain C++, no
/// intrinsics, so they compile identically in every TU). The SIMD kernels
/// delegate their sub-vector tails here with the tables already built.
inline void MulAdd8TailNib(uint8_t* dst, const uint8_t* src, size_t n,
                           const Nib8Tables& t) {
  for (size_t i = 0; i < n; ++i) {
    const uint8_t s = src[i];
    dst[i] ^= static_cast<uint8_t>(t.lo[s & 15] ^ t.hi[s >> 4]);
  }
}

inline void MulAdd16TailNib(uint8_t* dst, const uint8_t* src, size_t n,
                            const Nib16Tables& t) {
  assert(n % 2 == 0 && "GF(2^16) kernels operate on whole symbols");
  for (size_t i = 0; i + 2 <= n; i += 2) {
    const uint8_t sl = src[i];
    const uint8_t sh = src[i + 1];
    dst[i] ^= static_cast<uint8_t>(t.prod_lo[0][sl & 15] ^
                                   t.prod_lo[1][sl >> 4] ^
                                   t.prod_lo[2][sh & 15] ^
                                   t.prod_lo[3][sh >> 4]);
    dst[i + 1] ^= static_cast<uint8_t>(t.prod_hi[0][sl & 15] ^
                                       t.prod_hi[1][sl >> 4] ^
                                       t.prod_hi[2][sh & 15] ^
                                       t.prod_hi[3][sh >> 4]);
  }
}

// Tier tables defined by the per-ISA translation units. The SIMD tiers
// exist only when their TU is compiled in (CMake feature checks set
// LHRS_HAVE_KERNELS_*); kernels.cc additionally gates them on runtime CPU
// support before they become selectable.
extern const GfKernels kKernelsScalar;    // kernels_portable.cc
extern const GfKernels kKernelsWordwise;  // kernels_portable.cc
#if defined(LHRS_HAVE_KERNELS_SSSE3)
extern const GfKernels kKernelsSsse3;  // kernels_ssse3.cc (-mssse3)
#endif
#if defined(LHRS_HAVE_KERNELS_AVX2)
extern const GfKernels kKernelsAvx2;  // kernels_avx2.cc (-mavx2)
#endif
#if defined(LHRS_HAVE_KERNELS_NEON)
extern const GfKernels kKernelsNeon;  // kernels_neon.cc (aarch64)
#endif

}  // namespace lhrs::gfk

#endif  // LHRS_GF_KERNELS_INTERNAL_H_
