#include "util/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/logging.h"
#include "util/parallel.h"

namespace mgardp {

FieldSummary Summarize(const double* values, std::size_t n) {
  FieldSummary s;
  s.count = n;
  if (n == 0) {
    return s;
  }
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  double abs_sum = 0.0;
  double sq_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = values[i];
    s.min = std::min(s.min, v);
    s.max = std::max(s.max, v);
    sum += v;
    abs_sum += std::fabs(v);
    sq_sum += v * v;
    s.abs_max = std::max(s.abs_max, std::fabs(v));
  }
  s.mean = sum / static_cast<double>(n);
  s.abs_mean = abs_sum / static_cast<double>(n);
  s.l2_norm = std::sqrt(sq_sum);

  // Central moments in a second pass for numerical robustness.
  double m2 = 0.0, m3 = 0.0, m4 = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = values[i] - s.mean;
    const double d2 = d * d;
    m2 += d2;
    m3 += d2 * d;
    m4 += d2 * d2;
  }
  m2 /= static_cast<double>(n);
  m3 /= static_cast<double>(n);
  m4 /= static_cast<double>(n);
  s.stddev = std::sqrt(m2);
  if (m2 > 0.0) {
    s.skewness = m3 / std::pow(m2, 1.5);
    s.kurtosis = m4 / (m2 * m2) - 3.0;
  }
  return s;
}

FieldSummary Summarize(const std::vector<double>& values) {
  return Summarize(values.data(), values.size());
}

std::string FieldSummary::ToString() const {
  std::ostringstream os;
  os << "n=" << count << " min=" << min << " max=" << max << " mean=" << mean
     << " std=" << stddev;
  return os.str();
}

double MaxAbsError(const std::vector<double>& a,
                   const std::vector<double>& b) {
  MGARDP_CHECK_EQ(a.size(), b.size());
  double err = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    err = std::max(err, std::fabs(a[i] - b[i]));
  }
  return err;
}

double RmsError(const std::vector<double>& a, const std::vector<double>& b) {
  MGARDP_CHECK_EQ(a.size(), b.size());
  if (a.empty()) {
    return 0.0;
  }
  double sq = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    sq += d * d;
  }
  return std::sqrt(sq / static_cast<double>(a.size()));
}

double Psnr(const std::vector<double>& original,
            const std::vector<double>& reconstructed) {
  const double rmse = RmsError(original, reconstructed);
  const FieldSummary s = Summarize(original);
  if (rmse == 0.0) {
    return std::numeric_limits<double>::infinity();
  }
  if (s.range() == 0.0) {
    return -std::numeric_limits<double>::infinity();
  }
  return 20.0 * std::log10(s.range() / rmse);
}

double Quantile(std::vector<double> values, double q) {
  MGARDP_CHECK(!values.empty());
  MGARDP_CHECK(q >= 0.0 && q <= 1.0);
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] * (1.0 - frac) + values[hi] * frac;
}

namespace {

// Places the order statistics at `ranks` (ascending, within [first, last))
// into their sorted positions via divide-and-conquer nth_element: the k-th
// smallest element of a multiset is a well-defined value, so the ranks end
// up holding exactly what a full sort would put there, in O(n log ranks)
// instead of O(n log n).
template <typename T>
void SelectRanks(T* v, std::size_t first, std::size_t last,
                 const std::size_t* ranks, std::size_t num_ranks) {
  if (num_ranks == 0 || first >= last) {
    return;
  }
  const std::size_t mid = num_ranks / 2;
  const std::size_t r = ranks[mid];
  std::nth_element(v + first, v + r, v + last);
  SelectRanks(v, first, r, ranks, mid);
  SelectRanks(v, r + 1, last, ranks + mid + 1, num_ranks - mid - 1);
}

// Bin b of a sketch over n sorted values interpolates between sorted
// positions lo and hi = min(lo + 1, n - 1) with weight frac.
struct SketchBin {
  std::size_t lo;
  std::size_t hi;
  double frac;
};

SketchBin SketchBinAt(std::size_t n, std::size_t b, std::size_t bins) {
  const double q = (static_cast<double>(b) + 0.5) / static_cast<double>(bins);
  const double pos = q * static_cast<double>(n - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  return {lo, std::min(lo + 1, n - 1), pos - static_cast<double>(lo)};
}

// The sorted positions the sketch reads, ascending and unique.
std::vector<std::size_t> SketchRanks(std::size_t n, std::size_t bins) {
  std::vector<std::size_t> ranks;
  ranks.reserve(2 * bins);
  for (std::size_t b = 0; b < bins; ++b) {
    const SketchBin bin = SketchBinAt(n, b, bins);
    ranks.push_back(bin.lo);
    ranks.push_back(bin.hi);
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  return ranks;
}

// Interpolates the sketch from the values at SketchRanks(n, bins);
// `value_at_rank[i]` is the ranks[i]-th smallest |value|.
std::vector<double> InterpolateSketch(std::size_t n, std::size_t bins,
                                      const std::vector<std::size_t>& ranks,
                                      const std::vector<double>& value_at_rank) {
  auto at = [&](std::size_t rank) {
    return value_at_rank[std::lower_bound(ranks.begin(), ranks.end(), rank) -
                         ranks.begin()];
  };
  std::vector<double> sketch(bins);
  for (std::size_t b = 0; b < bins; ++b) {
    const SketchBin bin = SketchBinAt(n, b, bins);
    sketch[b] = at(bin.lo) * (1.0 - bin.frac) + at(bin.hi) * bin.frac;
  }
  return sketch;
}

// Radix select over the IEEE-754 bit patterns of |x|. With the sign bit
// clear, non-negative doubles (subnormals and +inf included) order exactly
// like their bit patterns as uint64, so bits 62..47 -- the exponent and the
// top five mantissa bits -- pick one of 2^16 ordered buckets.
constexpr int kRadixShift = 47;
constexpr std::size_t kRadixBuckets = std::size_t{1} << 16;
constexpr std::uint64_t kAbsMask = ~(std::uint64_t{1} << 63);
// Values per histogram chunk; at most one chunk per pool thread.
constexpr std::size_t kSketchGrain = std::size_t{1} << 16;

std::uint64_t AbsBits(double v) {
  return std::bit_cast<std::uint64_t>(v) & kAbsMask;
}

}  // namespace

namespace internal {

std::vector<double> AbsQuantileSketchSerial(const std::vector<double>& values,
                                            std::size_t bins) {
  MGARDP_CHECK_GT(bins, 0u);
  std::vector<double> abs_vals(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    abs_vals[i] = std::fabs(values[i]);
  }
  std::vector<double> sketch(bins, 0.0);
  if (abs_vals.empty()) {
    return sketch;
  }
  // Each bin reads positions lo and lo + 1 of the sorted array; selecting
  // just those ranks yields the same values as sorting everything.
  std::vector<std::size_t> ranks;
  ranks.reserve(2 * bins);
  for (std::size_t b = 0; b < bins; ++b) {
    const double q = (static_cast<double>(b) + 0.5) / static_cast<double>(bins);
    const double pos = q * static_cast<double>(abs_vals.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    ranks.push_back(lo);
    ranks.push_back(std::min(lo + 1, abs_vals.size() - 1));
  }
  std::sort(ranks.begin(), ranks.end());
  ranks.erase(std::unique(ranks.begin(), ranks.end()), ranks.end());
  SelectRanks(abs_vals.data(), 0, abs_vals.size(), ranks.data(),
              ranks.size());
  for (std::size_t b = 0; b < bins; ++b) {
    const double q = (static_cast<double>(b) + 0.5) / static_cast<double>(bins);
    const double pos = q * static_cast<double>(abs_vals.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, abs_vals.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    sketch[b] = abs_vals[lo] * (1.0 - frac) + abs_vals[hi] * frac;
  }
  return sketch;
}

}  // namespace internal

std::vector<double> AbsQuantileSketch(const std::vector<double>& values,
                                      std::size_t bins) {
  MGARDP_CHECK_GT(bins, 0u);
  const std::size_t n = values.size();
  if (n == 0) {
    return std::vector<double>(bins, 0.0);
  }
  MGARDP_CHECK_LT(n, std::size_t{1} << 32) << "sketch counts are 32-bit";
  const std::vector<std::size_t> ranks = SketchRanks(n, bins);

  // Pass 1: each chunk histograms its contiguous slice of the values into
  // its own row of one caller-owned buffer (no per-worker allocation).
  ThreadPool& threads = GlobalThreadPool();
  const std::size_t num_chunks = std::clamp<std::size_t>(
      n / kSketchGrain, 1, static_cast<std::size_t>(threads.num_threads()));
  auto chunk_begin = [&](std::size_t c) { return c * n / num_chunks; };
  std::vector<std::uint32_t> hist(num_chunks * kRadixBuckets, 0);
  threads.Run(num_chunks, [&](std::size_t c) {
    std::uint32_t* row = hist.data() + c * kRadixBuckets;
    for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      ++row[AbsBits(values[i]) >> kRadixShift];
    }
  });

  // Locate the bucket holding each target rank. Only those buckets (at most
  // one per rank) are gathered; `gather_at` is each one's offset in the
  // gather buffer, and each chunk's row turns into its write cursors.
  std::vector<std::size_t> bucket_start(kRadixBuckets + 1, 0);
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    std::size_t total = 0;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      total += hist[c * kRadixBuckets + b];
    }
    bucket_start[b + 1] = bucket_start[b] + total;
  }
  std::vector<std::size_t> rank_bucket(ranks.size());
  std::vector<std::uint8_t> is_target(kRadixBuckets, 0);
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    rank_bucket[i] = static_cast<std::size_t>(
        std::upper_bound(bucket_start.begin(), bucket_start.end(), ranks[i]) -
        bucket_start.begin() - 1);
    is_target[rank_bucket[i]] = 1;
  }
  std::vector<std::size_t> gather_at(kRadixBuckets, 0);
  std::size_t num_gathered = 0;
  for (std::size_t b = 0; b < kRadixBuckets; ++b) {
    if (is_target[b] == 0) {
      continue;
    }
    gather_at[b] = num_gathered;
    for (std::size_t c = 0; c < num_chunks; ++c) {
      const std::uint32_t count = hist[c * kRadixBuckets + b];
      hist[c * kRadixBuckets + b] = static_cast<std::uint32_t>(num_gathered);
      num_gathered += count;
    }
  }

  // Pass 2: the same chunks scatter their target-bucket values to disjoint
  // cursor ranges.
  std::vector<std::uint64_t> candidates(num_gathered);
  threads.Run(num_chunks, [&](std::size_t c) {
    std::uint32_t* cursor = hist.data() + c * kRadixBuckets;
    for (std::size_t i = chunk_begin(c); i < chunk_begin(c + 1); ++i) {
      const std::uint64_t bits = AbsBits(values[i]);
      const std::size_t b = bits >> kRadixShift;
      if (is_target[b] != 0) {
        candidates[cursor[b]++] = bits;
      }
    }
  });

  // Select each bucket's ranks inside that bucket alone. A bucket's values
  // are exactly those of global ranks [bucket_start[b], bucket_start[b+1]),
  // so the local order statistic is the global one.
  std::vector<double> value_at_rank(ranks.size());
  std::vector<std::size_t> local;
  for (std::size_t i = 0; i < ranks.size();) {
    const std::size_t b = rank_bucket[i];
    std::size_t j = i;
    local.clear();
    for (; j < ranks.size() && rank_bucket[j] == b; ++j) {
      local.push_back(ranks[j] - bucket_start[b]);
    }
    std::uint64_t* bucket = candidates.data() + gather_at[b];
    SelectRanks(bucket, 0, bucket_start[b + 1] - bucket_start[b],
                local.data(), local.size());
    for (std::size_t k = i; k < j; ++k) {
      value_at_rank[k] = std::bit_cast<double>(bucket[local[k - i]]);
    }
    i = j;
  }
  return InterpolateSketch(n, bins, ranks, value_at_rank);
}

double PearsonCorrelation(const std::vector<double>& a,
                          const std::vector<double>& b) {
  MGARDP_CHECK_EQ(a.size(), b.size());
  if (a.empty()) {
    return 0.0;
  }
  const double n = static_cast<double>(a.size());
  double ma = 0.0, mb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ma += a[i];
    mb += b[i];
  }
  ma /= n;
  mb /= n;
  double cov = 0.0, va = 0.0, vb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double da = a[i] - ma;
    const double db = b[i] - mb;
    cov += da * db;
    va += da * da;
    vb += db * db;
  }
  if (va == 0.0 || vb == 0.0) {
    return 0.0;
  }
  return cov / std::sqrt(va * vb);
}

}  // namespace mgardp
