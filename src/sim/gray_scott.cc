#include "sim/gray_scott.h"

#include <algorithm>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mgardp {

GrayScottSimulator::GrayScottSimulator(Dims3 dims, GrayScottParams params)
    : params_(params),
      u_(dims, 1.0),
      v_(dims, 0.0),
      u_next_(dims),
      v_next_(dims) {
  MGARDP_CHECK_GT(dims.size(), 0u);
  MGARDP_CHECK_LT(params_.dt, 1.0 / (6.0 * params_.du))
      << "dt violates the forward-Euler diffusion stability limit";
  // Seed block: the central third of the domain.
  Rng rng(params_.seed);
  const std::size_t cx0 = dims.nx / 3, cx1 = dims.nx - dims.nx / 3;
  const std::size_t cy0 = dims.ny / 3, cy1 = dims.ny - dims.ny / 3;
  const std::size_t cz0 = dims.nz / 3, cz1 = dims.nz - dims.nz / 3;
  for (std::size_t i = 0; i < dims.nx; ++i) {
    for (std::size_t j = 0; j < dims.ny; ++j) {
      for (std::size_t k = 0; k < dims.nz; ++k) {
        const bool in_seed = (dims.nx == 1 || (i >= cx0 && i < cx1)) &&
                             (dims.ny == 1 || (j >= cy0 && j < cy1)) &&
                             (dims.nz == 1 || (k >= cz0 && k < cz1));
        if (in_seed) {
          u_(i, j, k) = 0.25 + params_.noise * rng.NextGaussian();
          v_(i, j, k) = 0.33 + params_.noise * rng.NextGaussian();
        } else {
          u_(i, j, k) += params_.noise * rng.NextGaussian();
        }
      }
    }
  }
}

void GrayScottSimulator::Step(int steps) {
  const Dims3& d = u_.dims();
  auto wrap = [](std::size_t i, std::size_t n, long delta) -> std::size_t {
    // Periodic boundary.
    const long m = static_cast<long>(i) + delta;
    if (m < 0) {
      return n - 1;
    }
    if (m >= static_cast<long>(n)) {
      return 0;
    }
    return static_cast<std::size_t>(m);
  };
  // Every point of the next state reads only the previous buffers, so
  // x-slabs update independently across the pool, bit-identically for any
  // thread count.
  const std::size_t slab = d.ny * d.nz;
  const std::size_t grain = std::max<std::size_t>(1, 2048 / slab);
  for (int s = 0; s < steps; ++s) {
    ParallelFor(0, d.nx, grain, [&](std::size_t i_lo, std::size_t i_hi) {
      for (std::size_t i = i_lo; i < i_hi; ++i) {
        const std::size_t im = wrap(i, d.nx, -1), ip = wrap(i, d.nx, +1);
        for (std::size_t j = 0; j < d.ny; ++j) {
          const std::size_t jm = wrap(j, d.ny, -1), jp = wrap(j, d.ny, +1);
          for (std::size_t k = 0; k < d.nz; ++k) {
            const std::size_t km = wrap(k, d.nz, -1), kp = wrap(k, d.nz, +1);
            const double u = u_(i, j, k);
            const double v = v_(i, j, k);
            double lap_u = -6.0 * u + u_(im, j, k) + u_(ip, j, k) +
                           u_(i, jm, k) + u_(i, jp, k) + u_(i, j, km) +
                           u_(i, j, kp);
            double lap_v = -6.0 * v + v_(im, j, k) + v_(ip, j, k) +
                           v_(i, jm, k) + v_(i, jp, k) + v_(i, j, km) +
                           v_(i, j, kp);
            const double uvv = u * v * v;
            u_next_(i, j, k) =
                u + params_.dt * (params_.du * lap_u - uvv +
                                  params_.feed * (1.0 - u));
            v_next_(i, j, k) =
                v + params_.dt * (params_.dv * lap_v + uvv -
                                  (params_.feed + params_.kill) * v);
          }
        }
      }
    });
    std::swap(u_, u_next_);
    std::swap(v_, v_next_);
    ++step_count_;
  }
}

}  // namespace mgardp
