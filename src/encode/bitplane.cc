#include "encode/bitplane.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>

#include "encode/negabinary.h"
#include "util/io.h"
#include "util/logging.h"
#include "util/parallel.h"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace mgardp {

BitplaneEncoder::BitplaneEncoder(int num_planes) : num_planes_(num_planes) {
  MGARDP_CHECK(num_planes >= 2 && num_planes <= 60)
      << "num_planes out of range";
}

namespace {

// Chunk size for per-coefficient loops. Fixed (not thread-count-derived) so
// chunked reductions are bit-identical for any MGARDP_THREADS setting. A
// multiple of 64 so transpose blocks never straddle a chunk boundary.
constexpr std::size_t kCoefGrain = 8192;

// Exponent e with max_abs <= 2^e (e = 0 when the level is all zeros).
int LevelExponent(const std::vector<double>& coefs) {
  // max is exact under reassociation, so the parallel reduce is safe.
  const double max_abs = ParallelReduce<double>(
      0, coefs.size(), kCoefGrain, 0.0,
      [&](std::size_t lo, std::size_t hi) {
        double m = 0.0;
        for (std::size_t i = lo; i < hi; ++i) {
          m = std::max(m, std::fabs(coefs[i]));
        }
        return m;
      },
      [](double a, double b) { return std::max(a, b); });
  if (max_abs == 0.0) {
    return 0;
  }
  int e = static_cast<int>(std::ceil(std::log2(max_abs)));
  // Guard against log2 rounding putting max_abs just above 2^e.
  while (max_abs > std::ldexp(1.0, e)) {
    ++e;
  }
  return e;
}

// The exponent a level is stored with: LevelExponent, raised where needed
// so the fixed-point scale 2^(B - 2 - e) stays finite. Without the floor a
// level whose max |c| is below about 2^(B - 1026) would overflow the scale
// to +inf and fail to encode; with it such a level keeps fewer significant
// digits, and its error matrix records exactly what that costs. Decode reads
// the stored exponent, so it needs no change.
int ScaleExponent(const std::vector<double>& coefs, int num_planes) {
  constexpr int kMaxScaleExponent =
      std::numeric_limits<double>::max_exponent - 1;  // 2^1023
  return std::max(LevelExponent(coefs), num_planes - 2 - kMaxScaleExponent);
}

// Per-chunk accumulator for the error matrix: entry b holds the running
// max-abs / squared-error over the chunk's coefficients at prefix length b.
struct ErrorAccumulator {
  std::vector<double> max_abs;
  std::vector<double> sq_err;
};

// Quantizes every coefficient into a nega-binary digit word. Returns the
// index of the first coefficient whose expansion needs more than
// `num_planes` digits, or coefs.size() when all fit.
std::size_t QuantizeNegabinary(const std::vector<double>& coefs, double scale,
                               int num_planes, std::vector<std::uint64_t>* nb) {
  return ParallelReduce<std::size_t>(
      0, coefs.size(), kCoefGrain, coefs.size(),
      [&](std::size_t lo, std::size_t hi) {
        std::size_t bad = coefs.size();
        for (std::size_t i = lo; i < hi; ++i) {
          const std::int64_t q = std::llround(coefs[i] * scale);
          (*nb)[i] = ToNegabinary(q);
          if (NegabinaryDigits((*nb)[i]) > num_planes && bad == coefs.size()) {
            bad = i;
          }
        }
        return bad;
      },
      [](std::size_t a, std::size_t b) { return std::min(a, b); });
}

Status OverflowError(const std::vector<double>& coefs, std::size_t index,
                     int num_planes, int exponent) {
  std::ostringstream os;
  os << "coefficient " << coefs[index] << " overflows " << num_planes
     << " nega-binary planes (exponent " << exponent << ")";
  return Status::Internal(os.str());
}

// Little-endian word <-> plane-byte shuttles. On little-endian hosts the
// full-word forms compile to single unaligned accesses; the byte loops keep
// partial (tail) blocks and big-endian hosts correct.
inline void StoreWordLE(std::uint64_t w, char* dst, std::size_t nbytes) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  if (nbytes == 8) {
    std::memcpy(dst, &w, 8);
    return;
  }
#endif
  for (std::size_t b = 0; b < nbytes; ++b) {
    dst[b] = static_cast<char>(w >> (8 * b));
  }
}

inline std::uint64_t LoadWordLE(const char* src, std::size_t nbytes) {
#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
  if (nbytes == 8) {
    std::uint64_t w;
    std::memcpy(&w, src, 8);
    return w;
  }
#endif
  std::uint64_t w = 0;
  for (std::size_t b = 0; b < nbytes; ++b) {
    w |= static_cast<std::uint64_t>(static_cast<unsigned char>(src[b]))
         << (8 * b);
  }
  return w;
}

// Transposes the 64-coefficient block starting at i0 (i0 a multiple of 64)
// and stores one machine word per plane. Block i0 owns plane bytes
// [i0 / 8, i0 / 8 + ceil(nblock / 8)), so concurrent blocks never touch the
// same byte.
inline void EmitBlock(const std::uint64_t* nb, std::size_t i0,
                      std::size_t nblock, int num_planes,
                      std::vector<std::string>* planes) {
  std::uint64_t m[64];
  std::size_t r = 0;
  for (; r < nblock; ++r) {
    m[r] = nb[i0 + r];
  }
  for (; r < 64; ++r) {
    m[r] = 0;
  }
  internal::Transpose64x64(m);
  const std::size_t byte0 = i0 >> 3;
  const std::size_t nbytes = (nblock + 7) >> 3;
  for (int p = 0; p < num_planes; ++p) {
    StoreWordLE(m[num_planes - 1 - p], (*planes)[p].data() + byte0, nbytes);
  }
}

// The error-matrix kernel. Entry b of a level's error matrix is the error
// left when only the top b of the B digits are kept, and that prefix's value
// has a closed form: FromNegabinary(w & mask[b]), with mask[b] keeping the
// top b digits (mask[0] = 0 gives entry 0, |c|). So no plane depends on the
// one before it, and the kernel walks the planes in passes of
// kPlanesPerPass, looping over the coefficients inside each pass with that
// pass's accumulators held locally, two planes to an SSE2 register. The
// planes of a pass are independent chains, so the loop runs at the
// vector units' throughput. Each accumulator still sees the same
// doubles in the same coefficient order as the reference loop in
// EncodeScalar, so the sums are bit-identical; only the order across
// planes changes, and those accumulators are independent.
constexpr int kPlanesPerPass = 8;

// Error-matrix entries padded to whole 2-lane pairs. The pad entry, when
// there is one, is computed and never read.
inline int PaddedEntries(int num_planes) { return (num_planes + 2) & ~1; }

// mask[b] keeps the top b of num_planes digits; the pad entry keeps them
// all.
void PrefixMasks(int num_planes, std::uint64_t* mask) {
  mask[0] = 0;
  for (int b = 1; b <= num_planes; ++b) {
    mask[b] = ~std::uint64_t{0} << (num_planes - b);
  }
  for (int b = num_planes + 1; b < PaddedEntries(num_planes); ++b) {
    mask[b] = ~std::uint64_t{0};
  }
}

// One lane: `width` planes over coefficients [0, n). static_cast<double> is
// the reference's own conversion, so any B converts exactly as it does.
inline void AccumulatePass1(const double* c, const std::uint64_t* nb,
                            std::size_t n, const std::uint64_t* mask,
                            int width, double inv_scale, double* max_abs,
                            double* sq_err) {
  double x[kPlanesPerPass];
  double s[kPlanesPerPass];
  for (int k = 0; k < width; ++k) {
    x[k] = max_abs[k];
    s[k] = sq_err[k];
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < width; ++k) {
      const double rec =
          static_cast<double>(FromNegabinary(nb[i] & mask[k])) * inv_scale;
      const double d = std::fabs(c[i] - rec);
      x[k] = std::max(x[k], d);
      s[k] += d * d;
    }
  }
  for (int k = 0; k < width; ++k) {
    max_abs[k] = x[k];
    sq_err[k] = s[k];
  }
}

#if defined(__SSE2__)
// Largest B whose prefixes the 2-lane step converts exactly: a prefix of B
// nega-binary digits has |value| < 2^B, and the magic-number conversion
// below is exact for |value| < 2^51.
constexpr int kMaxSse2Planes = 50;

// Two lanes: 2 * kPairs planes over coefficients [0, n), one register pair
// (max-abs, squared error) per two planes. SSE2 has no int64 -> double
// conversion: adding |value| < 2^51 to the bits of 1.5 * 2^52 gives the
// bits of the double 1.5 * 2^52 + value exactly, and subtracting
// 1.5 * 2^52 as a double leaves value. fabs clears the sign bit, and max of
// two non-negative, non-NaN doubles is std::max, so every lane matches the
// one-lane step bit for bit.
template <int kPairs>
inline void AccumulatePass2(const double* c, const std::uint64_t* nb,
                            std::size_t n, const std::uint64_t* mask,
                            double inv_scale, double* max_abs,
                            double* sq_err) {
  const __m128i nega =
      _mm_set1_epi64x(static_cast<long long>(kNegabinaryMask));
  const __m128i magic_bits = _mm_set1_epi64x(0x4338000000000000LL);
  const __m128d magic = _mm_castsi128_pd(magic_bits);
  const __m128d abs_mask =
      _mm_castsi128_pd(_mm_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  const __m128d inv = _mm_set1_pd(inv_scale);
  // The biased prefix is ((w & m) ^ nega) - nega + magic_bits. The bits of
  // w & m and of nega & ~m are disjoint, so with u = w ^ nega it equals
  // (u & m) + off, off = (nega & ~m) - nega + magic_bits per entry.
  __m128i m[kPairs];
  __m128i off[kPairs];
  __m128d x[kPairs];
  __m128d s[kPairs];
  for (int k = 0; k < kPairs; ++k) {
    m[k] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(mask + 2 * k));
    off[k] = _mm_add_epi64(_mm_andnot_si128(m[k], nega),
                           _mm_sub_epi64(magic_bits, nega));
    x[k] = _mm_loadu_pd(max_abs + 2 * k);
    s[k] = _mm_loadu_pd(sq_err + 2 * k);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const __m128i u =
        _mm_xor_si128(_mm_set1_epi64x(static_cast<long long>(nb[i])), nega);
    const __m128d ci = _mm_set1_pd(c[i]);
    for (int k = 0; k < kPairs; ++k) {
      const __m128i biased = _mm_add_epi64(_mm_and_si128(u, m[k]), off[k]);
      const __m128d value = _mm_sub_pd(_mm_castsi128_pd(biased), magic);
      const __m128d d =
          _mm_and_pd(_mm_sub_pd(ci, _mm_mul_pd(value, inv)), abs_mask);
      x[k] = _mm_max_pd(x[k], d);
      s[k] = _mm_add_pd(s[k], _mm_mul_pd(d, d));
    }
  }
  for (int k = 0; k < kPairs; ++k) {
    _mm_storeu_pd(max_abs + 2 * k, x[k]);
    _mm_storeu_pd(sq_err + 2 * k, s[k]);
  }
}
#endif

// Adds coefficients [lo, hi) to every error-matrix entry of `acc`.
inline void AccumulateStats(const std::vector<double>& coefs,
                            const std::uint64_t* nb, std::size_t lo,
                            std::size_t hi, int num_planes,
                            const std::uint64_t* mask, double inv_scale,
                            ErrorAccumulator* acc) {
  const double* c = coefs.data() + lo;
  const std::size_t n = hi - lo;
  nb += lo;
  const int entries = num_planes + 1;
  for (int b0 = 0; b0 < entries; b0 += kPlanesPerPass) {
    const int width = std::min(kPlanesPerPass, entries - b0);
    double* const x = acc->max_abs.data() + b0;
    double* const s = acc->sq_err.data() + b0;
#if defined(__SSE2__)
    if (num_planes <= kMaxSse2Planes) {
      switch ((width + 1) / 2) {
        case 4:
          AccumulatePass2<4>(c, nb, n, mask + b0, inv_scale, x, s);
          break;
        case 3:
          AccumulatePass2<3>(c, nb, n, mask + b0, inv_scale, x, s);
          break;
        case 2:
          AccumulatePass2<2>(c, nb, n, mask + b0, inv_scale, x, s);
          break;
        default:
          AccumulatePass2<1>(c, nb, n, mask + b0, inv_scale, x, s);
          break;
      }
      continue;
    }
#endif
    AccumulatePass1(c, nb, n, mask + b0, width, inv_scale, x, s);
  }
}

}  // namespace

Result<BitplaneSet> BitplaneEncoder::Encode(const std::vector<double>& coefs,
                                            LevelErrorStats* stats) const {
  BitplaneSet set;
  set.num_planes = num_planes_;
  set.count = coefs.size();
  set.exponent = ScaleExponent(coefs, num_planes_);
  const std::size_t plane_bytes = set.PlaneBytes();
  set.planes.assign(num_planes_, std::string(plane_bytes, '\0'));

  // Fixed-point scale: |q| <= 2^(B-2), which B nega-binary digits can
  // always represent (max positive value of B digits is (2^B - 1) / 3ish,
  // and 2^(B-2) is safely inside for both signs).
  const double scale = std::ldexp(1.0, num_planes_ - 2 - set.exponent);
  const double inv_scale = 1.0 / scale;

  std::vector<std::uint64_t> nb(coefs.size());
  const std::size_t first_overflow =
      QuantizeNegabinary(coefs, scale, num_planes_, &nb);
  if (first_overflow < coefs.size()) {
    return OverflowError(coefs, first_overflow, num_planes_, set.exponent);
  }

  // Slice digits into planes, MSB plane first, 64 coefficients per
  // instruction: each 64-word block is bit-transposed so word d holds digit
  // d of all 64 coefficients, which is exactly 8 plane bytes. When the
  // error matrix is requested its accumulation shares the same pass over
  // the transposed blocks.
  const std::size_t n = coefs.size();
  if (stats == nullptr) {
    ParallelFor(0, (n + 63) / 64, kCoefGrain / 64,
                [&](std::size_t b_lo, std::size_t b_hi) {
                  for (std::size_t blk = b_lo; blk < b_hi; ++blk) {
                    const std::size_t i0 = blk * 64;
                    EmitBlock(nb.data(), i0, std::min<std::size_t>(64, n - i0),
                              num_planes_, &set.planes);
                  }
                });
    return set;
  }

  stats->max_abs.assign(num_planes_ + 1, 0.0);
  stats->mse.assign(num_planes_ + 1, 0.0);
  const double inv_n = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
  // Coefficients are independent, so chunks of them reduce in parallel; the
  // fixed grain plus ordered combine keeps the sums reproducible. Chunks are
  // 64-aligned, so the plane-emitting blocks nest inside them, and each
  // block's words are still in L1 when its error-matrix passes read them.
  std::uint64_t mask[64];
  PrefixMasks(num_planes_, mask);
  const int padded = PaddedEntries(num_planes_);
  ErrorAccumulator zero;
  zero.max_abs.assign(padded, 0.0);
  zero.sq_err.assign(padded, 0.0);
  ErrorAccumulator total = ParallelReduce<ErrorAccumulator>(
      0, n, kCoefGrain, zero,
      [&](std::size_t lo, std::size_t hi) {
        ErrorAccumulator acc = zero;
        for (std::size_t i0 = lo; i0 < hi; i0 += 64) {
          const std::size_t nblock = std::min<std::size_t>(64, hi - i0);
          EmitBlock(nb.data(), i0, nblock, num_planes_, &set.planes);
          AccumulateStats(coefs, nb.data(), i0, i0 + nblock, num_planes_,
                          mask, inv_scale, &acc);
        }
        return acc;
      },
      [&](ErrorAccumulator a, ErrorAccumulator b) {
        for (int i = 0; i <= num_planes_; ++i) {
          a.max_abs[i] = std::max(a.max_abs[i], b.max_abs[i]);
          a.sq_err[i] += b.sq_err[i];
        }
        return a;
      });
  for (int b = 0; b <= num_planes_; ++b) {
    stats->max_abs[b] = total.max_abs[b];
    stats->mse[b] = total.sq_err[b] * inv_n;
  }
  return set;
}

Result<std::vector<double>> BitplaneEncoder::Decode(const BitplaneSet& set,
                                                    int prefix_planes) const {
  MGARDP_RETURN_NOT_OK(internal::ValidateBitplaneSet(set, prefix_planes));
  const double inv_scale =
      std::ldexp(1.0, set.exponent - (set.num_planes - 2));
  const std::size_t n = set.count;
  std::vector<double> coefs(n);
  // Gather each 64-coefficient block's plane words, transpose back to
  // coefficient-major nega-binary words, and convert. Each block owns its
  // slice of the output, so the result is scheduling-independent.
  ParallelFor(0, (n + 63) / 64, kCoefGrain / 64,
              [&](std::size_t b_lo, std::size_t b_hi) {
                std::uint64_t m[64];
                for (std::size_t blk = b_lo; blk < b_hi; ++blk) {
                  const std::size_t i0 = blk * 64;
                  const std::size_t nblock = std::min<std::size_t>(64, n - i0);
                  const std::size_t nbytes = (nblock + 7) >> 3;
                  std::memset(m, 0, sizeof(m));
                  for (int p = 0; p < prefix_planes; ++p) {
                    m[set.num_planes - 1 - p] =
                        LoadWordLE(set.planes[p].data() + (i0 >> 3), nbytes);
                  }
                  internal::Transpose64x64(m);
                  for (std::size_t r = 0; r < nblock; ++r) {
                    coefs[i0 + r] =
                        static_cast<double>(FromNegabinary(m[r])) * inv_scale;
                  }
                }
              });
  return coefs;
}

void SerializeBitplaneSet(const BitplaneSet& set, std::string* out) {
  BinaryWriter w;
  w.Put<std::int32_t>(set.num_planes);
  w.Put<std::int32_t>(set.exponent);
  w.Put<std::uint64_t>(set.count);
  w.Put<std::uint64_t>(set.planes.size());
  for (const std::string& p : set.planes) {
    w.PutString(p);
  }
  *out = w.TakeBuffer();
}

Result<BitplaneSet> DeserializeBitplaneSet(const std::string& in) {
  BinaryReader r(in);
  BitplaneSet set;
  std::int32_t num_planes = 0, exponent = 0;
  std::uint64_t count = 0, n_planes = 0;
  MGARDP_RETURN_NOT_OK(r.Get(&num_planes));
  MGARDP_RETURN_NOT_OK(r.Get(&exponent));
  MGARDP_RETURN_NOT_OK(r.Get(&count));
  MGARDP_RETURN_NOT_OK(r.Get(&n_planes));
  // Reject impossible shapes before allocating anything sized by them: a
  // corrupt n_planes would otherwise drive a multi-gigabyte resize, and a
  // count that disagrees with the stored payload sizes would let Decode
  // index past plane ends.
  if (num_planes < 2 || num_planes > 60) {
    return Status::Invalid("BitplaneSet: num_planes out of range");
  }
  if (n_planes > static_cast<std::uint64_t>(num_planes)) {
    return Status::Invalid("BitplaneSet: more planes than num_planes");
  }
  set.num_planes = num_planes;
  set.exponent = exponent;
  set.count = count;
  set.planes.resize(n_planes);
  for (auto& p : set.planes) {
    MGARDP_RETURN_NOT_OK(r.GetString(&p));
    if (p.size() != set.PlaneBytes()) {
      return Status::Invalid("BitplaneSet: plane size disagrees with count");
    }
  }
  return set;
}

namespace internal {

Status ValidateBitplaneSet(const BitplaneSet& set, int prefix_planes) {
  if (set.num_planes < 2 || set.num_planes > 60) {
    return Status::Invalid("BitplaneSet: num_planes out of range");
  }
  if (prefix_planes < 0 || prefix_planes > set.num_planes) {
    return Status::Invalid("prefix_planes out of range");
  }
  if (set.planes.size() > static_cast<std::size_t>(set.num_planes)) {
    return Status::Invalid("BitplaneSet: more planes than num_planes");
  }
  if (set.planes.size() < static_cast<std::size_t>(prefix_planes)) {
    return Status::Invalid("BitplaneSet is missing planes");
  }
  // Validate every present plane, not just the first prefix_planes: a set
  // whose tail planes are malformed is corrupt even when this particular
  // decode would not touch them.
  const std::size_t plane_bytes = set.PlaneBytes();
  for (const std::string& p : set.planes) {
    if (p.size() != plane_bytes) {
      return Status::Invalid("plane payload has wrong size");
    }
  }
  return Status::OK();
}

void SlicePlanesScalar(const std::uint64_t* nb, std::size_t count,
                       int num_planes, std::vector<std::string>* planes) {
  for (int p = 0; p < num_planes; ++p) {
    const int digit = num_planes - 1 - p;
    std::string& plane = (*planes)[p];
    for (std::size_t i = 0; i < count; ++i) {
      if ((nb[i] >> digit) & 1u) {
        plane[i >> 3] |= static_cast<char>(1u << (i & 7));
      }
    }
  }
}

Result<BitplaneSet> EncodeScalar(const std::vector<double>& coefs,
                                 int num_planes, LevelErrorStats* stats) {
  MGARDP_CHECK(num_planes >= 2 && num_planes <= 60)
      << "num_planes out of range";
  BitplaneSet set;
  set.num_planes = num_planes;
  set.count = coefs.size();
  set.exponent = ScaleExponent(coefs, num_planes);
  set.planes.assign(num_planes, std::string(set.PlaneBytes(), '\0'));

  const double scale = std::ldexp(1.0, num_planes - 2 - set.exponent);
  const double inv_scale = 1.0 / scale;

  std::vector<std::uint64_t> nb(coefs.size());
  const std::size_t first_overflow =
      QuantizeNegabinary(coefs, scale, num_planes, &nb);
  if (first_overflow < coefs.size()) {
    return OverflowError(coefs, first_overflow, num_planes, set.exponent);
  }

  SlicePlanesScalar(nb.data(), coefs.size(), num_planes, &set.planes);

  if (stats != nullptr) {
    stats->max_abs.assign(num_planes + 1, 0.0);
    stats->mse.assign(num_planes + 1, 0.0);
    const double inv_n =
        coefs.empty() ? 0.0 : 1.0 / static_cast<double>(coefs.size());
    ErrorAccumulator zero;
    zero.max_abs.assign(num_planes + 1, 0.0);
    zero.sq_err.assign(num_planes + 1, 0.0);
    ErrorAccumulator total = ParallelReduce<ErrorAccumulator>(
        0, coefs.size(), kCoefGrain, zero,
        [&](std::size_t lo, std::size_t hi) {
          ErrorAccumulator acc;
          acc.max_abs.assign(num_planes + 1, 0.0);
          acc.sq_err.assign(num_planes + 1, 0.0);
          for (std::size_t i = lo; i < hi; ++i) {
            std::int64_t value = 0;  // FromNegabinary of the kept digits
            const double d0 = std::fabs(coefs[i]);
            acc.max_abs[0] = std::max(acc.max_abs[0], d0);
            acc.sq_err[0] += d0 * d0;
            for (int b = 1; b <= num_planes; ++b) {
              const int digit = num_planes - b;
              if ((nb[i] >> digit) & 1u) {
                const std::int64_t mag = std::int64_t{1} << digit;
                value += (digit & 1) ? -mag : mag;
              }
              const double rec = static_cast<double>(value) * inv_scale;
              const double d = std::fabs(coefs[i] - rec);
              acc.max_abs[b] = std::max(acc.max_abs[b], d);
              acc.sq_err[b] += d * d;
            }
          }
          return acc;
        },
        [&](ErrorAccumulator a, ErrorAccumulator b) {
          for (int i = 0; i <= num_planes; ++i) {
            a.max_abs[i] = std::max(a.max_abs[i], b.max_abs[i]);
            a.sq_err[i] += b.sq_err[i];
          }
          return a;
        });
    for (int b = 0; b <= num_planes; ++b) {
      stats->max_abs[b] = total.max_abs[b];
      stats->mse[b] = total.sq_err[b] * inv_n;
    }
  }
  return set;
}

Result<std::vector<double>> DecodeScalar(const BitplaneSet& set,
                                         int prefix_planes) {
  MGARDP_RETURN_NOT_OK(ValidateBitplaneSet(set, prefix_planes));
  const double inv_scale =
      std::ldexp(1.0, set.exponent - (set.num_planes - 2));
  std::vector<double> coefs(set.count);
  ParallelFor(0, static_cast<std::size_t>(set.count), kCoefGrain,
              [&](std::size_t lo, std::size_t hi) {
                for (std::size_t i = lo; i < hi; ++i) {
                  std::uint64_t nb = 0;
                  for (int p = 0; p < prefix_planes; ++p) {
                    if ((set.planes[p][i >> 3] >> (i & 7)) & 1) {
                      nb |= std::uint64_t{1} << (set.num_planes - 1 - p);
                    }
                  }
                  coefs[i] =
                      static_cast<double>(FromNegabinary(nb)) * inv_scale;
                }
              });
  return coefs;
}

}  // namespace internal

}  // namespace mgardp
