// Distributed HOOI walkthrough on the simulated message-passing runtime:
// partition a skewed tensor with the fine-grain hypergraph model and with
// random placement, run paper Algorithm 4 under both, and compare fits,
// per-iteration times, and communication volumes (the paper's Table II/III
// story in miniature).
//
//   ./distributed_demo [num_ranks]
#include <cstdio>
#include <cstdlib>

#include "dist/dist_hooi.hpp"
#include "tensor/generators.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace ht;

  const int num_ranks = argc > 1 ? std::atoi(argv[1]) : 8;

  tensor::CooTensor x = tensor::random_zipf(
      /*shape=*/{30000, 5000, 600}, /*target_nnz=*/150000,
      /*theta=*/{1.0, 0.9, 0.4}, /*seed=*/33);
  tensor::plant_low_rank_values(x, 6, 0.1, 34);
  std::printf("tensor: %s, %d simulated ranks\n", x.summary().c_str(),
              num_ranks);

  TextTable table({"config", "fit@5", "s/iter", "comm entries (total)",
                   "comm max/avg (worst mode)"});
  for (const auto method : {dist::Method::kHypergraph, dist::Method::kRandom}) {
    dist::DistHooiOptions options;
    options.ranks = {10, 10, 10};
    options.grain = dist::Grain::kFine;
    options.method = method;
    options.num_ranks = num_ranks;
    options.max_iterations = 5;
    options.fit_tolerance = 0.0;  // the table reports the fit after 5 sweeps
    const dist::DistHooiResult r = dist::dist_hooi(x, options);

    double worst_ratio = 0;
    std::string worst;
    for (std::size_t n = 0; n < 3; ++n) {
      const auto s = r.stats.comm_summary(n);
      if (s.max > worst_ratio) {
        worst_ratio = s.max;
        worst = human_count(s.max) + " / " + human_count(s.avg);
      }
    }
    table.add_row({r.label, fmt_fixed(r.fits.back(), 4),
                   fmt_time_s(r.seconds_per_iteration),
                   human_count(static_cast<double>(r.stats.total_comm_entries())),
                   worst});
  }
  std::printf("%s", table.to_string().c_str());
  std::printf("fine-hp should communicate far less than fine-rd while "
              "reaching the same fit.\n");
  return 0;
}
