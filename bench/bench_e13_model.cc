// E13 — Cost-model fidelity and design-space navigation (tutorial §2.3.1).
//
// Claim: the closed-form model tracks the measured amplifications closely
// enough to rank designs, so the navigator's chosen design is at or near
// the empirically best one for a given mix.

#include <algorithm>

#include "bench/bench_util.h"
#include "tuning/navigator.h"

namespace lsmlab::bench {
namespace {

constexpr uint64_t kNumInserts = 100000;
constexpr uint64_t kNumEmptyReads = 5000;

struct Measured {
  double write_amp;
  double empty_read_ios;
};

Measured MeasureDesign(DataLayout layout, int size_ratio) {
  TestStack stack;
  Options options = SmallTreeOptions();
  options.data_layout = layout;
  options.size_ratio = size_ratio;
  options.level0_file_num_compaction_trigger =
      layout == DataLayout::kLeveling ? 1 : size_ratio;
  options.enable_wal = false;
  Status s = stack.Open(options);
  if (!s.ok()) {
    std::fprintf(stderr, "open: %s\n", s.ToString().c_str());
    return {};
  }
  WorkloadSpec spec = WorkloadSpec::WriteOnly(kNumInserts);
  spec.value_size = 100;
  WorkloadGenerator gen(spec);
  BenchCheck(Load(&stack, &gen, kNumInserts), "Load");

  Measured m;
  m.write_amp =
      stack.env->GetStats().WriteAmplification(stack.user_bytes_written);

  stack.env->ResetStats();
  Random rnd(17);
  ReadOptions ro;
  std::string value;
  for (uint64_t i = 0; i < kNumEmptyReads; ++i) {
    BenchGet(stack.db.get(), 
        ro, WorkloadGenerator::FormatKey(rnd.Uniform(kNumInserts)) + "!x",
        &value);
  }
  m.empty_read_ios = static_cast<double>(stack.env->GetStats().read_ops) /
                     static_cast<double>(kNumEmptyReads);
  return m;
}

void Run() {
  Banner("E13: analytical model vs measurement; navigator sanity",
         "the closed-form cost model ranks designs the same way the "
         "measurements do (tutorial §2.3.1)");

  DataSpec data;
  data.num_entries = kNumInserts;
  data.entry_bytes = 120;

  PrintHeader({"layout", "T", "model write cost", "measured write amp",
               "model empty-read", "measured empty-read I/O"});
  struct Point {
    DataLayout layout;
    const char* name;
    int t;
    double model_write;
    double measured_write;
  };
  std::vector<Point> points;
  for (auto [layout, name] :
       std::vector<std::pair<DataLayout, const char*>>{
           {DataLayout::kLeveling, "leveling"},
           {DataLayout::kTiering, "tiering"},
           {DataLayout::kLazyLeveling, "lazy-leveling"}}) {
    for (int t : {3, 6, 10}) {
      LsmDesign design;
      design.layout = layout;
      design.size_ratio = t;
      design.buffer_bytes = 64 << 10;
      design.filter_bits_per_key = 10;
      CostModel model(design, data);
      Measured m = MeasureDesign(layout, t);
      // Model write cost is page I/Os per entry; convert to a write-amp
      // scale via entries-per-page for apples-to-apples.
      double model_write_amp =
          model.WriteCost() * data.EntriesPerPage() / 2.0;
      PrintRow({name, FmtInt(static_cast<uint64_t>(t)),
                Fmt(model_write_amp), Fmt(m.write_amp),
                Fmt(model.ZeroResultLookupCost(), 3),
                Fmt(m.empty_read_ios, 3)});
      points.push_back({layout, name, t, model_write_amp, m.write_amp});
    }
  }

  // Rank agreement on the layout dimension: at each T, does the model order
  // the layouts' write costs the same way the measurement does? (The
  // steady-state write formula is not meaningful for a tree still filling,
  // so absolute magnitudes and the T-sweep are indicative only.)
  int agreements = 0, comparisons = 0;
  for (int t : {3, 6, 10}) {
    std::vector<Point> at_t;
    for (const auto& p : points) {
      if (p.t == t) at_t.push_back(p);
    }
    for (size_t i = 0; i < at_t.size(); ++i) {
      for (size_t j = i + 1; j < at_t.size(); ++j) {
        ++comparisons;
        bool model_says = at_t[i].model_write < at_t[j].model_write;
        bool measured_says = at_t[i].measured_write < at_t[j].measured_write;
        if (model_says == measured_says) {
          ++agreements;
        }
      }
    }
  }
  std::printf(
      "\nlayout-ordering agreement at fixed T (pairwise): %d / %d\n",
      agreements, comparisons);

  std::printf("\nnavigator picks for three mixes (50M x 128B entries, "
              "64 MiB memory):\n");
  DataSpec nav_data;
  nav_data.num_entries = 50'000'000;
  nav_data.entry_bytes = 128;
  DesignSpaceSpec space;
  space.max_size_ratio = 10;
  PrintHeader({"mix", "chosen design"});
  PrintRow({"write-heavy (0.9/0.05/0.03/0.02)",
            NominalTuning(space, nav_data, WorkloadMix(0.9, 0.05, 0.03, 0.02))
                .Label()});
  PrintRow({"balanced   (0.25 each)",
            NominalTuning(space, nav_data,
                          WorkloadMix(0.25, 0.25, 0.25, 0.25))
                .Label()});
  PrintRow({"read-heavy (0.05/0.55/0.2/0.2)",
            NominalTuning(space, nav_data, WorkloadMix(0.05, 0.55, 0.2, 0.2))
                .Label()});
  std::printf(
      "\nshape check: the ordering agreement above covers write cost only "
      "(tiering lowest write amp). The measured empty-read column counts "
      "every device read after the stats reset, the first open of each "
      "table (footer, index, filter) included, so it is not compared with "
      "the model's zero-result cost. The navigator moves from tiering "
      "toward leveling as the mix shifts to reads.\n");
}

}  // namespace
}  // namespace lsmlab::bench

int main() {
  lsmlab::bench::Run();
  return 0;
}
