#include "sim/warpx.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace mgardp {

std::string WarpXFieldName(WarpXField field) {
  switch (field) {
    case WarpXField::kBx:
      return "B_x";
    case WarpXField::kEx:
      return "E_x";
    case WarpXField::kJx:
      return "J_x";
  }
  return "?";
}

WarpXSimulator::WarpXSimulator(Dims3 dims, WarpXParams params)
    : dims_(dims), params_(params) {
  MGARDP_CHECK_GT(dims.size(), 0u);
  Rng rng(params_.seed);
  for (int m = 0; m < kNumModes; ++m) {
    // Broadband perturbation: wavenumbers grow with mode index, random
    // orientation and phase, 1/k amplitude falloff.
    const double k = 2.0 * M_PI * static_cast<double>(2 << m);
    mode_kx_[m] = k * rng.Uniform(0.5, 1.0);
    mode_ky_[m] = k * rng.Uniform(0.2, 1.0);
    mode_kz_[m] = k * rng.Uniform(0.2, 1.0);
    mode_phase_[m] = rng.Uniform(0.0, 2.0 * M_PI);
    mode_amp_[m] = 1.0 / static_cast<double>(1 << m);
  }
}

double WarpXSimulator::Evaluate(WarpXField field, double x, double y,
                                double z, int timestep) const {
  const WarpXParams& p = params_;
  // Pulse center advances with the group velocity; it starts just outside
  // the domain so early timesteps see the pulse entering.
  const double xc = -2.0 * p.laser_duration +
                    p.pulse_speed * static_cast<double>(timestep);
  const double xi = x - xc;                      // co-moving coordinate
  const double sigma = p.laser_duration;         // envelope length (c = 1)
  const double envelope = std::exp(-0.5 * (xi / sigma) * (xi / sigma));
  const double r2 = (y - 0.5) * (y - 0.5) + (z - 0.5) * (z - 0.5);
  const double transverse = std::exp(-r2 / (p.spot_size * p.spot_size));

  // Plasma wake behind the pulse: wavenumber scales with sqrt(n_e); the
  // wake amplitude grows with a0 and decays slowly behind the driver.
  const double kp = 2.0 * M_PI * 8.0 * std::sqrt(p.electron_density);
  const double behind = xi < 0.0 ? 1.0 : 0.0;
  const double wake_decay = behind * std::exp(0.15 * xi * kp / (2.0 * M_PI));
  const double wake_amp = 0.3 * p.laser_amplitude *
                          std::sqrt(p.electron_density);

  // Broadband perturbation (frozen turbulence advected with the pulse).
  double noise = 0.0;
  for (int m = 0; m < kNumModes; ++m) {
    noise += mode_amp_[m] * std::sin(mode_kx_[m] * (x - 0.1 * xc) +
                                     mode_ky_[m] * y + mode_kz_[m] * z +
                                     mode_phase_[m]);
  }
  noise *= p.perturbation;

  switch (field) {
    case WarpXField::kEx: {
      // Longitudinal field: laser carrier under the envelope plus the
      // accelerating wakefield behind it.
      const double laser = p.laser_amplitude * envelope *
                           std::cos(p.carrier_wavenumber * xi);
      const double wake = wake_amp * wake_decay * std::sin(kp * xi);
      return (laser + wake) * transverse * (1.0 + noise);
    }
    case WarpXField::kBx: {
      // Longitudinal magnetic field is zero for an ideal plane pulse; what
      // remains is the azimuthal asymmetry term plus wake curl.
      const double asym = (y - 0.5) / p.spot_size;
      const double laser = 0.25 * p.laser_amplitude * envelope *
                           std::sin(p.carrier_wavenumber * xi) * asym;
      const double wake = 0.15 * wake_amp * wake_decay *
                          std::cos(kp * xi) * asym;
      return (laser + wake) * transverse * (1.0 + noise);
    }
    case WarpXField::kJx: {
      // Longitudinal current density: electron oscillation in the wake,
      // proportional to density.
      const double wake = p.electron_density * wake_amp * wake_decay *
                          std::cos(kp * xi);
      const double ponderomotive = 0.05 * p.laser_amplitude *
                                   p.electron_density * envelope;
      return (wake + ponderomotive) * transverse * (1.0 + noise);
    }
  }
  return 0.0;
}

Array3Dd WarpXSimulator::Field(WarpXField field, int timestep) const {
  Array3Dd out(dims_);
  auto coord = [](std::size_t i, std::size_t n) -> double {
    return n == 1 ? 0.5 : static_cast<double>(i) / static_cast<double>(n - 1);
  };
  // Points are independent evaluations; x-slabs fan out across the pool.
  const std::size_t grain =
      std::max<std::size_t>(1, 2048 / (dims_.ny * dims_.nz));
  ParallelFor(0, dims_.nx, grain, [&](std::size_t i_lo, std::size_t i_hi) {
    for (std::size_t i = i_lo; i < i_hi; ++i) {
      const double x = coord(i, dims_.nx);
      for (std::size_t j = 0; j < dims_.ny; ++j) {
        const double y = coord(j, dims_.ny);
        for (std::size_t k = 0; k < dims_.nz; ++k) {
          const double z = coord(k, dims_.nz);
          out(i, j, k) = Evaluate(field, x, y, z, timestep);
        }
      }
    }
  });
  return out;
}

}  // namespace mgardp
