#include "perfbench/corpus.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <vector>

namespace perfbench {
namespace {

// printf-style formatting into a string (names, numbers).
template <typename... T>
std::string Fmt(const char* format, T... values) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, values...);
  return buf;
}

void AppendStackInterface(SeqRng& rng, int layer, int index,
                          std::string& out) {
  const std::string name = StackName(layer, index);
  const std::string ecv = Fmt("s%d_%d_hit", layer, index);
  const double p = 0.05 + 0.9 * rng.Unit();
  const double per_item_nj = 0.5 + 4.0 * rng.Unit();
  const int loop = 2 + static_cast<int>(rng.Below(3));
  out += Fmt("# layer %d, resource %d\n", layer, index);
  out += "interface " + name + "(n) {\n";
  out += "  ecv " + ecv + " ~ bernoulli(" + Fmt("%.4f", p) + ");\n";
  out += "  let mut acc = 0J;\n";
  out += Fmt("  for k in 0..%d {\n", loop);
  out += "    acc = acc + (n + k) * " + Fmt("%.3f", per_item_nj) + "nJ;\n";
  out += "  }\n";
  if (layer == 0) {
    out += "  if (" + ecv + ") {\n    return acc + " +
           Fmt("%.2f", 10.0 + 90.0 * rng.Unit()) + "nJ;\n  }\n";
    out += "  return acc + n * " + Fmt("%.3f", 0.1 + rng.Unit()) + "nJ;\n";
  } else {
    const int a = static_cast<int>(rng.Below(kStackWidth));
    const int b = static_cast<int>((a + 1 + rng.Below(kStackWidth - 1)) %
                                   kStackWidth);
    out += "  if (" + ecv + ") {\n    return acc + " +
           StackName(layer - 1, a) + "(n);\n  }\n";
    out += "  return acc + " + Fmt("%.2f", 1.0 + rng.Unit()) + " * " +
           StackName(layer - 1, b) + "(n + 1);\n";
  }
  out += "}\n\n";
}

void AppendChainInterface(SeqRng& rng, int depth, int variant,
                          std::string& out) {
  out += Fmt("# %d independent draws; 2^depth enumerated paths\n", depth);
  out += "interface " + ChainName(depth, variant) + "(n) {\n";
  out += "  let mut acc = n * 2nJ;\n";
  for (int i = 0; i < depth; ++i) {
    const std::string ev = Fmt("c%d", i);
    const double unit_uj = 1.0 + static_cast<double>(rng.Below(9));
    out += "  ecv " + ev + " ~ bernoulli(" +
           Fmt("%.4f", 0.05 + 0.9 * rng.Unit()) + ");\n";
    out += "  if (" + ev + ") { acc = acc + " + Fmt("%.1f", unit_uj) +
           "uJ; } else { acc = acc + " + Fmt("%.2f", unit_uj / 4.0) +
           "uJ; }\n";
  }
  out += "  return acc + n * 3uJ;\n}\n\n";
}

}  // namespace

std::string StackName(int layer, int index) {
  return Fmt("S%d_%d", layer, index);
}

std::string ChainName(int depth, int variant) {
  return Fmt("C%d_%d", depth, variant);
}

std::string GenerateCorpus(uint64_t seed) {
  SeqRng rng(Mix64(seed, 0xC0B05));
  std::string out;
  out.reserve(600 * 1024);
  out += "# Generated layered stack (Fig. 2 shape) and deep ECV chains.\n\n";
  for (int layer = 0; layer < kStackLayers; ++layer) {
    for (int i = 0; i < kStackWidth; ++i) {
      AppendStackInterface(rng, layer, i, out);
    }
  }
  for (int depth = kChainMinDepth; depth <= kChainMaxDepth; ++depth) {
    for (int v = 0; v < kChainVariants; ++v) {
      AppendChainInterface(rng, depth, v, out);
    }
  }
  return out;
}

bool ReadExamples(const std::string& root, std::string& out) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(root) / "examples" / "eil";
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return false;
  }
  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir, ec)) {
    if (e.path().extension() == ".eil") {
      files.push_back(e.path());
    }
  }
  std::sort(files.begin(), files.end());
  for (const fs::path& f : files) {
    std::ifstream in(f);
    if (!in) {
      return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    out += text.str();
    out += "\n";
  }
  return !files.empty();
}

}  // namespace perfbench
