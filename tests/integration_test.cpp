// End-to-end pipelines across subsystem boundaries: generator -> IO ->
// symbolic -> HOOI -> prediction; distributed runs under the network cost
// model; generator statistics that the benchmark conclusions rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "core/hooi.hpp"
#include "dist/dist_hooi.hpp"
#include "tensor/generators.hpp"
#include "tensor/io.hpp"

namespace {

using ht::core::HooiOptions;
using ht::dist::DistHooiOptions;
using ht::dist::Grain;
using ht::dist::Method;
using ht::tensor::CooTensor;
using ht::tensor::index_t;
using ht::tensor::nnz_t;
using ht::tensor::Shape;

class TempFile {
 public:
  explicit TempFile(const std::string& suffix) {
    path_ = ::testing::TempDir() + "ht_integration_" + suffix;
  }
  ~TempFile() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

TEST(IntegrationTest, GenerateSaveLoadDecomposePredict) {
  // Full user workflow: synthesize -> write .tns -> read back -> HOOI ->
  // evaluate the model at known coordinates.
  CooTensor original = ht::tensor::random_zipf(Shape{80, 60, 40}, 20000,
                                               {0.8, 0.5, 0.2}, 31);
  ht::tensor::plant_low_rank_values(original, 4, 0.02, 32);

  TempFile f("roundtrip.tns");
  ht::tensor::write_tns_file(f.path(), original);
  CooTensor loaded = ht::tensor::read_tns_file(f.path(), original.shape());
  ASSERT_EQ(loaded.nnz(), original.nnz());

  HooiOptions options;
  options.ranks = {4, 4, 4};
  options.max_iterations = 8;
  const auto result = ht::core::hooi(loaded, options);
  EXPECT_GT(result.final_fit(), 0.10);  // clear planted structure

  // Model evaluations at nonzero coordinates correlate with the data.
  double dot = 0, nx = 0, nm = 0;
  std::vector<index_t> idx(3);
  for (nnz_t e = 0; e < loaded.nnz(); e += 7) {
    for (std::size_t n = 0; n < 3; ++n) idx[n] = loaded.index(n, e);
    const double model = result.decomposition.reconstruct_at(idx);
    const double truth = loaded.value(e);
    dot += model * truth;
    nx += truth * truth;
    nm += model * model;
  }
  EXPECT_GT(dot / std::sqrt(nx * nm + 1e-30), 0.5);
}

TEST(IntegrationTest, DistributedUnderNetworkModelMatchesFreeNetwork) {
  // The network cost model must change timing only — never results.
  CooTensor x = ht::tensor::random_zipf(Shape{50, 40, 30}, 1200,
                                        {0.9, 0.5, 0.2}, 33);
  ht::tensor::plant_low_rank_values(x, 3, 0.1, 34);

  DistHooiOptions options;
  options.ranks = {3, 3, 3};
  options.grain = Grain::kFine;
  options.method = Method::kHypergraph;
  options.num_ranks = 4;
  options.max_iterations = 2;
  options.fit_tolerance = 0.0;

  const auto free_net = ht::dist::dist_hooi(x, options);

  ::setenv("HT_NET_LATENCY_US", "1", 1);
  ::setenv("HT_NET_GBPS", "5", 1);
  const auto modeled = ht::dist::dist_hooi(x, options);
  ::unsetenv("HT_NET_LATENCY_US");
  ::unsetenv("HT_NET_GBPS");

  ASSERT_EQ(free_net.fits.size(), modeled.fits.size());
  for (std::size_t i = 0; i < free_net.fits.size(); ++i) {
    EXPECT_DOUBLE_EQ(free_net.fits[i], modeled.fits[i]);
  }
  // Volumes are a property of the partition, not the network speed.
  EXPECT_EQ(free_net.stats.total_comm_entries(),
            modeled.stats.total_comm_entries());
}

TEST(IntegrationTest, PresetTensorsHaveCommunityLocality) {
  // The fine-grain hypergraph benefit depends on cross-mode locality; the
  // preset generator must produce partitions with far lower cutsize than
  // random placement (this is what bench_table2/3 conclusions rest on).
  auto spec = ht::tensor::paper_preset("netflix", 0.1);
  const CooTensor x = ht::tensor::generate_preset(spec, 42);
  DistHooiOptions options;
  options.ranks = spec.ranks;
  options.num_ranks = 4;
  options.max_iterations = 1;
  options.fit_tolerance = 0.0;
  options.grain = Grain::kFine;

  options.method = Method::kHypergraph;
  const auto hp = ht::dist::dist_hooi(x, options);
  options.method = Method::kRandom;
  const auto rd = ht::dist::dist_hooi(x, options);
  EXPECT_LT(hp.stats.total_comm_entries(),
            rd.stats.total_comm_entries() / 2);
}

TEST(IntegrationTest, PresetTensorsHaveSkewedSlices) {
  // Giant indivisible slices are what drives the paper's coarse-grain
  // imbalance; verify the generator plants them for the 4-mode presets.
  auto spec = ht::tensor::paper_preset("flickr", 0.1);
  const CooTensor x = ht::tensor::generate_preset(spec, 42);
  const auto hist = x.slice_nnz(3);  // tag-like mode, theta = 1.25
  nnz_t top = 0;
  for (auto c : hist) top = std::max(top, c);
  EXPECT_GT(top, x.nnz() / 25)
      << "top slice should hold several percent of all nonzeros";
}

TEST(IntegrationTest, SharedAndDistributedAgreeOnPresetTensor) {
  auto spec = ht::tensor::paper_preset("nell", 0.05);
  const CooTensor x = ht::tensor::generate_preset(spec, 7);

  // One options object for both drivers; core::hooi reads its base.
  DistHooiOptions options;
  options.ranks = spec.ranks;
  options.grain = Grain::kCoarse;
  options.method = Method::kBlock;
  options.num_ranks = 5;
  options.max_iterations = 2;
  options.fit_tolerance = 0.0;
  options.seed = 99;
  const auto shared = ht::core::hooi(x, options);
  const auto dist = ht::dist::dist_hooi(x, options);

  ASSERT_EQ(dist.fits.size(), shared.fits.size());
  EXPECT_NEAR(dist.fits.back(), shared.fits.back(), 1e-6);
}

TEST(IntegrationTest, MalformedTensorFileFailsCleanly) {
  TempFile f("bad.tns");
  std::FILE* out = std::fopen(f.path().c_str(), "w");
  std::fputs("garbage here\n", out);
  std::fclose(out);
  EXPECT_THROW(ht::tensor::read_tns_file(f.path()), ht::IoError);
}

}  // namespace
