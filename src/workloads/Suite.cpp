#include "workloads/Suite.h"

#include "frontend/LoopCompiler.h"
#include "support/ParallelFor.h"
#include "workloads/RandomLoop.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace lsms;

const std::vector<NamedKernel> &lsms::kernelSources() {
  // Livermore-loop-style kernels (LL*), plus classic BLAS-1 shapes and the
  // paper's own Figure 1 loop. All are expressed in the loop DSL.
  static const std::vector<NamedKernel> Kernels = {
      {"fig1_sample", //
       "loop i = 3, n\n"
       "  x[i] = x[i-1] + y[i-2]\n"
       "  y[i] = y[i-1] + x[i-2]\n"
       "end\n"},
      {"ll1_hydro", //
       "param q = 0.5\nparam r = 0.25\nparam t = 2\n"
       "loop i = 1, n\n"
       "  x[i] = q + y[i]*(r*z[i+10] + t*z[i+11])\n"
       "end\n"},
      {"ll2_iccg_like", //
       "param c = 0.3\n"
       "loop i = 2, n\n"
       "  x[i] = x[i-1] - c*v[i]*x[i-2]\n"
       "end\n"},
      {"ll3_inner_product", //
       "param q = 0\n"
       "loop i = 1, n\n"
       "  q = q + z[i]*x[i]\n"
       "end\n"},
      {"ll4_banded_linear", //
       "param f = 0.175\n"
       "loop i = 1, n\n"
       "  y[i] = y[i] - f*x[i+5] - f*x[i+10]\n"
       "end\n"},
      {"ll5_tridiag", //
       "loop i = 2, n\n"
       "  x[i] = z[i]*(y[i] - x[i-1])\n"
       "end\n"},
      {"ll7_state_equation", //
       "param r = 0.5\nparam t = 2\n"
       "loop i = 1, n\n"
       "  x[i] = u[i] + r*(z[i] + r*y[i]) +"
       " t*(u[i+3] + r*(u[i+2] + r*u[i+1]) +"
       " t*(u[i+6] + r*(u[i+5] + r*u[i+4])))\n"
       "end\n"},
      {"ll9_integrate_predictor", //
       "param c0 = 2\nparam c1 = 4.5\nparam c2 = 6\nparam c3 = 3\n"
       "loop i = 1, n\n"
       "  px[i] = c0 + c1*(pa[i] + pb[i]) + c2*pc[i] + c3*pd[i]\n"
       "end\n"},
      {"ll10_difference_predictor", //
       "loop i = 1, n\n"
       "  br[i] = cx[i] - px[i]\n"
       "  px[i] = cx[i]\n"
       "end\n"},
      {"ll11_first_sum", //
       "loop i = 2, n\n"
       "  x[i] = x[i-1] + y[i]\n"
       "end\n"},
      {"ll12_first_diff", //
       "loop i = 1, n\n"
       "  x[i] = y[i+1] - y[i]\n"
       "end\n"},
      {"ll19_general_linear_recurrence", //
       "loop i = 2, n\n"
       "  b[i] = b[i] - sa[i]*b[i-1]\n"
       "  x[i] = b[i]*0.5 + x[i-1]*sb[i]\n"
       "end\n"},
      {"ll21_matrix_row", //
       "param s = 0\n"
       "loop i = 1, n\n"
       "  s = s + px[i]*vy[i]\n"
       "  cx[i] = s\n"
       "end\n"},
      {"daxpy", //
       "param a = 3\n"
       "loop i = 1, n\n"
       "  z[i] = a*x[i] + y[i]\n"
       "end\n"},
      {"dscale", //
       "param a = 0.5\n"
       "loop i = 1, n\n"
       "  x[i] = a*x[i]\n"
       "end\n"},
      {"vector_abs", //
       "loop i = 1, n\n"
       "  if (x[i] < 0) then\n"
       "    y[i] = -x[i]\n"
       "  else\n"
       "    y[i] = x[i]\n"
       "  end\n"
       "end\n"},
      {"clip_above_threshold", //
       "param t = 2.5\n"
       "loop i = 1, n\n"
       "  if (x[i] > t) then\n"
       "    x[i] = t\n"
       "  end\n"
       "end\n"},
      {"conditional_sum_count", //
       "param s = 0\nparam c = 0\n"
       "loop i = 1, n\n"
       "  if (x[i] > 1.5) then\n"
       "    s = s + x[i]\n"
       "    c = c + 1\n"
       "  end\n"
       "end\n"},
      {"minmax_select", //
       "param lo = 1\nparam hi = 2.5\n"
       "loop i = 1, n\n"
       "  if (x[i] < lo) then\n"
       "    y[i] = lo\n"
       "  else\n"
       "    if (x[i] > hi) then\n"
       "      y[i] = hi\n"
       "    else\n"
       "      y[i] = x[i]\n"
       "    end\n"
       "  end\n"
       "end\n"},
      {"newton_sqrt_step", //
       "loop i = 1, n\n"
       "  y[i] = 0.5*(g[i] + x[i]/g[i])\n"
       "end\n"},
      {"norm2_accumulate", //
       "param s = 0\n"
       "loop i = 1, n\n"
       "  s = s + x[i]*x[i]\n"
       "  y[i] = sqrt(x[i]*x[i] + 1)\n"
       "end\n"},
      {"rational_eval", //
       "param a = 1.5\nparam b = 0.5\n"
       "loop i = 1, n\n"
       "  y[i] = (a*x[i] + b) / (x[i] + 2)\n"
       "end\n"},
      {"complex_mult", //
       "loop i = 1, n\n"
       "  cr[i] = ar[i]*br[i] - ai[i]*bi[i]\n"
       "  ci[i] = ar[i]*bi[i] + ai[i]*br[i]\n"
       "end\n"},
      {"horner_poly4", //
       "param c0 = 1\nparam c1 = 0.5\nparam c2 = 0.25\nparam c3 = 0.125\n"
       "loop i = 1, n\n"
       "  y[i] = ((c3*x[i] + c2)*x[i] + c1)*x[i] + c0\n"
       "end\n"},
      {"smoothing_stencil", //
       "param w = 0.25\n"
       "loop i = 2, n\n"
       "  y[i] = w*(x[i-1] + 2*x[i] + x[i+1])\n"
       "end\n"},
      {"exp_decay_recurrence", //
       "param k = 0.9\n"
       "loop i = 2, n\n"
       "  x[i] = k*x[i-1] + u[i]\n"
       "end\n"},
      {"coupled_recurrence_deep", //
       "param a = 0.3\nparam b = 0.6\n"
       "loop i = 4, n\n"
       "  x[i] = a*x[i-3] + b*y[i-1]\n"
       "  y[i] = x[i-2] - y[i-3]\n"
       "end\n"},
      {"running_average3", //
       "loop i = 3, n\n"
       "  m[i] = (x[i] + x[i-1] + x[i-2]) / 3\n"
       "end\n"},
      {"induction_as_data", //
       "loop i = 1, n\n"
       "  x[i] = i*y[i] + i\n"
       "end\n"},
      {"ll6_general_recurrence_band", //
       "loop i = 2, n\n"
       "  w[i] = 0.01 + b[i]*w[i-1] + c[i]*w[i-2]\n"
       "end\n"},
      {"ll13_particle_push_fragment", //
       "param dt = 0.05\n"
       "loop i = 1, n\n"
       "  vx[i] = vx[i] + dt*ex[i]\n"
       "  xx[i] = xx[i] + dt*vx[i]\n"
       "end\n"},
      {"ll14_scatter_like", //
       "loop i = 1, n\n"
       "  rh[i] = rh[i] + dex[i]*dex[i+1]\n"
       "  ir[i] = grd[i] - dex[i]\n"
       "end\n"},
      {"ll18_explicit_hydro_fragment", //
       "param t = 0.0037\nparam s = 0.0041\n"
       "loop i = 2, n\n"
       "  zu[i] = zu[i] + s*(za[i]*(zz[i] - zz[i+1]) -"
       " za[i-1]*(zz[i] - zz[i-1]) - t*zb[i])\n"
       "end\n"},
      {"ll22_planckian", //
       "param expmax = 20\n"
       "loop i = 1, n\n"
       "  y[i] = u[i] / v[i]\n"
       "  w[i] = x[i] / (y[i] + 0.5)\n"
       "end\n"},
      {"saxpy_strided_even", //
       "param a = 2\n"
       "loop i = 1, n\n"
       "  z[2*i] = a*x[2*i] + y[2*i]\n"
       "end\n"},
      {"complex_scale_interleaved", //
       "param cr = 0.8\nparam ci = 0.6\n"
       "loop i = 1, n\n"
       "  out[2*i] = cr*v[2*i] - ci*v[2*i+1]\n"
       "  out[2*i+1] = cr*v[2*i+1] + ci*v[2*i]\n"
       "end\n"},
      {"red_black_relaxation", //
       "param w = 0.25\n"
       "loop i = 1, n\n"
       "  u[2*i] = w*(u[2*i-1] + u[2*i+1]) + u[2*i]*(1 - 2*w)\n"
       "end\n"},
      {"prefix_product", //
       "param p = 1\n"
       "loop i = 1, n\n"
       "  p = p * x[i]\n"
       "  y[i] = p\n"
       "end\n"},
      {"alternating_sign_sum", //
       "param s = 0\nparam sign = 1\n"
       "loop i = 1, n\n"
       "  s = s + sign*x[i]\n"
       "  sign = 0 - sign\n"
       "end\n"},
      {"three_term_recurrence", //
       "param a = 0.4\nparam b = 0.3\nparam c = 0.2\n"
       "loop i = 4, n\n"
       "  x[i] = a*x[i-1] + b*x[i-2] + c*x[i-3]\n"
       "end\n"},
      {"max_like_clamp_chain", //
       "param m = 0\n"
       "loop i = 1, n\n"
       "  if (x[i] > m) then\n"
       "    m = x[i]\n"
       "  end\n"
       "  y[i] = m\n"
       "end\n"},
      {"normalize_by_norm_estimate", //
       "loop i = 2, n\n"
       "  s = s*0.9 + x[i]*0.1\n"
       "  y[i] = x[i] / (s + 1)\n"
       "end\n"},
      {"branchy_three_way_split", //
       "param lo = 1.5\nparam hi = 2.5\n"
       "loop i = 1, n\n"
       "  if (x[i] < lo) then\n"
       "    small[i] = x[i]\n"
       "  else\n"
       "    if (x[i] < hi) then\n"
       "      mid[i] = x[i]\n"
       "    else\n"
       "      big[i] = x[i]\n"
       "    end\n"
       "  end\n"
       "end\n"},
  };
  return Kernels;
}

std::vector<LoopBody> lsms::buildKernelSuite() {
  std::vector<LoopBody> Suite;
  for (const NamedKernel &K : kernelSources()) {
    LoopBody Body;
    const std::string Err = compileLoop(K.Source, K.Name, Body);
    if (!Err.empty()) {
      std::fprintf(stderr, "kernel %s failed to compile: %s\n", K.Name,
                   Err.c_str());
      assert(false && "suite kernel failed to compile");
    }
    Suite.push_back(std::move(Body));
  }
  return Suite;
}

std::vector<LoopBody> lsms::buildFullSuite(int TotalLoops, uint64_t Seed) {
  std::vector<LoopBody> Suite = buildKernelSuite();
  Rng R(Seed);
  int Next = 0;
  while (static_cast<int>(Suite.size()) < TotalLoops) {
    const RandomLoopConfig Config = drawTable2Config(R);
    Suite.push_back(generateRandomLoop(Seed + 1000003ULL * ++Next, Config));
  }
  return Suite;
}

std::vector<LoopBody> lsms::buildOracleSuite(int Count, int MinOps,
                                             int MaxOps, uint64_t Seed,
                                             int Jobs) {
  assert(MinOps <= MaxOps && "empty size range");
  std::vector<LoopBody> Suite;
  Suite.reserve(static_cast<size_t>(Count));
  // Attempt k is a pure function of (Seed, k): its config comes from the
  // k-th draw of the config stream and its body from a per-attempt seed.
  // Workers therefore generate speculative blocks of attempts in parallel
  // while acceptance scans strictly in attempt order, reproducing the
  // sequential suite byte for byte at every job count (over-generated
  // attempts past the stopping point are simply discarded).
  Rng R(Seed);
  int Attempt = 0;
  const int MaxAttempts = Count * 64;
  const int BlockSize = std::max(Count, 32);
  while (static_cast<int>(Suite.size()) < Count && Attempt < MaxAttempts) {
    const int Block = std::min(BlockSize, MaxAttempts - Attempt);
    std::vector<RandomLoopConfig> Configs(static_cast<size_t>(Block));
    // Small targets: address arithmetic and brtop inflate the body beyond
    // TargetOps, so aim below the cap and filter on the realized size.
    for (RandomLoopConfig &Config : Configs)
      Config.TargetOps = static_cast<int>(
          R.nextInRange(2, std::max(2, MaxOps * 2 / 3)));
    std::vector<LoopBody> Bodies(static_cast<size_t>(Block));
    parallelFor(resolveJobs(Jobs), Block, [&](int I) {
      Bodies[static_cast<size_t>(I)] = generateRandomLoop(
          Seed + 1000003ULL * static_cast<uint64_t>(Attempt + I + 1),
          Configs[static_cast<size_t>(I)]);
    });
    for (int I = 0;
         I < Block && static_cast<int>(Suite.size()) < Count; ++I) {
      const int Ops = Bodies[static_cast<size_t>(I)].numMachineOps();
      if (Ops < MinOps || Ops > MaxOps)
        continue;
      Suite.push_back(std::move(Bodies[static_cast<size_t>(I)]));
    }
    Attempt += Block;
  }
  assert(static_cast<int>(Suite.size()) == Count &&
         "oracle suite generation exhausted its attempt budget");
  return Suite;
}

std::vector<LoopBody> lsms::buildIrregularSuite(int Count, int MaxOps,
                                                uint64_t Seed, int Jobs) {
  std::vector<LoopBody> Suite;
  Suite.reserve(static_cast<size_t>(Count));
  // Same blocked speculative-attempt scheme as buildOracleSuite: attempt k
  // is a pure function of (Seed, k), acceptance scans in attempt order.
  Rng R(Seed ^ 0x1993);
  int Attempt = 0;
  const int MaxAttempts = Count * 64;
  const int BlockSize = std::max(Count, 32);
  while (static_cast<int>(Suite.size()) < Count && Attempt < MaxAttempts) {
    const int Block = std::min(BlockSize, MaxAttempts - Attempt);
    std::vector<IrregularLoopConfig> Configs(static_cast<size_t>(Block));
    for (IrregularLoopConfig &Config : Configs)
      Config.TargetOps = static_cast<int>(
          R.nextInRange(4, std::max<int64_t>(6, MaxOps / 2)));
    std::vector<LoopBody> Bodies(static_cast<size_t>(Block));
    parallelFor(resolveJobs(Jobs), Block, [&](int I) {
      Bodies[static_cast<size_t>(I)] = generateIrregularLoop(
          Seed + 7778777ULL * static_cast<uint64_t>(Attempt + I + 1),
          Configs[static_cast<size_t>(I)]);
    });
    for (int I = 0;
         I < Block && static_cast<int>(Suite.size()) < Count; ++I) {
      if (Bodies[static_cast<size_t>(I)].numMachineOps() > MaxOps)
        continue;
      Suite.push_back(std::move(Bodies[static_cast<size_t>(I)]));
    }
    Attempt += Block;
  }
  assert(static_cast<int>(Suite.size()) == Count &&
         "irregular suite generation exhausted its attempt budget");
  return Suite;
}
