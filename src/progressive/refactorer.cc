#include "progressive/refactorer.h"

#include <algorithm>
#include <cmath>
#include <mutex>
#include <sstream>

#include "decompose/decomposer.h"
#include "decompose/interleaver.h"
#include "encode/bitplane.h"
#include "lossless/codec.h"
#include "obs/tracer.h"
#include "progressive/padding.h"
#include "util/parallel.h"

namespace mgardp {

namespace {

// Values per chunk of the non-finite input scan.
constexpr std::size_t kFiniteScanGrain = 1 << 16;

// Nega-binary quantization has no representation for NaN or +-inf, so
// such input is refused up front, naming the first offending index.
Status CheckFinite(const std::vector<double>& values) {
  const std::size_t first = ParallelReduce<std::size_t>(
      0, values.size(), kFiniteScanGrain, values.size(),
      [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          if (!std::isfinite(values[i])) {
            return i;
          }
        }
        return values.size();
      },
      [](std::size_t a, std::size_t b) { return std::min(a, b); });
  if (first == values.size()) {
    return Status::OK();
  }
  std::ostringstream msg;
  msg << "input value " << values[first] << " at index " << first
      << " is not finite";
  return Status::Invalid(msg.str());
}

}  // namespace

Result<RefactoredField> Refactorer::Refactor(Array3Dd data) const {
  MGARDP_TRACE_SPAN("refactor", "progressive");
  if (options_.num_planes < 2 || options_.num_planes > 60) {
    return Status::Invalid("num_planes must be in [2, 60]");
  }
  if (options_.sketch_bins < 1) {
    return Status::Invalid("sketch_bins must be >= 1");
  }
  if (options_.codec != "auto" &&
      lossless::FindCodecByName(options_.codec) == nullptr) {
    return Status::Invalid("unknown lossless codec '" + options_.codec + "'");
  }
  MGARDP_RETURN_NOT_OK(CheckFinite(data.vector()));
  // Pad arbitrary extents to the next 2^k + 1 (edge replication); the
  // original extents travel in the metadata and reconstruction crops back.
  const Dims3 original_dims = data.dims();
  const Dims3 padded_dims = NextValidDims(original_dims);
  if (!(padded_dims == original_dims)) {
    MGARDP_ASSIGN_OR_RETURN(data, PadToDims(data, padded_dims));
  }
  HierarchyOptions hopts;
  hopts.target_steps = options_.target_steps;
  MGARDP_ASSIGN_OR_RETURN(GridHierarchy hierarchy,
                          GridHierarchy::Create(data.dims(), hopts));

  RefactoredField field;
  field.hierarchy = hierarchy;
  field.original_dims = original_dims;
  field.num_planes = options_.num_planes;
  field.use_correction = options_.use_correction;
  field.data_summary = Summarize(data.vector());

  DecomposeOptions dopts;
  dopts.use_correction = options_.use_correction;
  Decomposer decomposer(hierarchy, dopts);
  std::vector<std::vector<double>> levels;
  {
    MGARDP_TRACE_SPAN("refactor/decompose", "progressive");
    MGARDP_RETURN_NOT_OK(decomposer.Decompose(&data));
    Interleaver interleaver(hierarchy);
    levels = interleaver.Extract(data);
  }
  // Peak memory: the grid and each level's coefficients are released as
  // soon as their last reader is done, before the lossless fan-out's
  // buffers land in the pool threads' allocator arenas.
  data = Array3Dd();

  BitplaneEncoder encoder(options_.num_planes);
  const int L = hierarchy.num_levels();
  field.level_exponents.resize(L);
  field.level_errors.resize(L);
  field.plane_sizes.resize(L);
  field.level_sketches.resize(L);
  // Levels are encoded in order (the encoder parallelizes internally over
  // coefficients and planes, which balances better than the skewed level
  // sizes), collecting every plane payload; the lossless stage then fans
  // out across all (level, plane) pairs at once -- ~L x num_planes
  // tasks, finest level first -- before the serial store pass.
  std::vector<BitplaneSet> sets(L);
  {
    MGARDP_TRACE_SPAN("refactor/encode", "progressive");
    for (int l = 0; l < L; ++l) {
      MGARDP_ASSIGN_OR_RETURN(
          sets[l], encoder.Encode(levels[l], &field.level_errors[l]));
      field.level_exponents[l] = sets[l].exponent;
      field.level_sketches[l] = AbsQuantileSketch(
          levels[l], static_cast<std::size_t>(options_.sketch_bins));
      levels[l] = std::vector<double>();
    }
  }
  std::vector<std::size_t> first_plane(L + 1, 0);
  for (int l = 0; l < L; ++l) {
    first_plane[l + 1] = first_plane[l] + sets[l].planes.size();
  }
  std::vector<std::string> compressed(first_plane[L]);
  {
    MGARDP_TRACE_SPAN("refactor/lossless", "progressive");
    Status compress_status;
    std::mutex status_mu;
    // The finest level holds most of the bytes. Walking it first puts its
    // planes in the leading chunks, which ParallelFor stripes across every
    // thread instead of leaving them to the last one or two.
    const std::size_t num_tasks = first_plane[L];
    ParallelFor(0, num_tasks, 1, [&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) {
        const std::size_t t = num_tasks - 1 - i;
        const int l = static_cast<int>(std::upper_bound(first_plane.begin(),
                                                        first_plane.end(), t) -
                                       first_plane.begin()) -
                      1;
        Result<std::string> blob = lossless::CompressWith(
            sets[l].planes[t - first_plane[l]], options_.codec);
        if (blob.ok()) {
          compressed[t] = std::move(blob).value();
        } else {
          std::lock_guard<std::mutex> lock(status_mu);
          compress_status = blob.status();
        }
      }
    });
    MGARDP_RETURN_NOT_OK(compress_status);
  }
  {
    MGARDP_TRACE_SPAN("refactor/store", "storage");
    for (int l = 0; l < L; ++l) {
      field.plane_sizes[l].resize(sets[l].planes.size());
      for (int p = 0; p < static_cast<int>(sets[l].planes.size()); ++p) {
        std::string& blob = compressed[first_plane[l] + p];
        field.plane_sizes[l][p] = blob.size();
        field.segments.Put(l, p, std::move(blob));
      }
    }
  }
  return field;
}

}  // namespace mgardp
