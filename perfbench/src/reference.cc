#include "reference.h"

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include "spans.h"

namespace perfbench {

namespace {

/// Keeps the kernel's results alive so it is not optimized away.
volatile uint64_t g_reference_sink = 0;

struct Object {
  std::string name;
  std::vector<int64_t> values;
  std::map<int, int> index;
  std::function<uint64_t()> callback;
};

void Allocate(std::mt19937_64* rng) {
  for (int batch = 0; batch < 25; ++batch) {
    std::vector<std::unique_ptr<Object>> objects;
    for (int i = 0; i < 1000; ++i) {
      auto object = std::make_unique<Object>();
      object->name = "object-" + std::to_string(i);
      object->values.resize(8 + (*rng)() % 64);
      for (int j = 0; j < 6; ++j) {
        object->index[static_cast<int>((*rng)() % 100)] = j;
      }
      object->callback = [i]() { return static_cast<uint64_t>(i); };
      objects.push_back(std::move(object));
    }
    std::list<int> list;
    for (int i = 0; i < 2000; ++i) list.push_back(i);
    g_reference_sink = g_reference_sink + objects.back()->callback() +
                       list.size();
  }
}

void Search(std::mt19937_64* rng) {
  constexpr uint64_t kKeys = 200'000;
  std::map<uint64_t, std::vector<int>> ordered;
  std::unordered_map<uint64_t, uint64_t> hashed;
  for (int i = 0; i < 15'000; ++i) {
    uint64_t key = (*rng)() % kKeys;
    ordered[key].push_back(i);
    hashed[key ^ 0x5555] += static_cast<uint64_t>(i);
  }
  uint64_t sum = 0;
  for (int i = 0; i < 80'000; ++i) {
    auto it = ordered.find((*rng)() % kKeys);
    if (it != ordered.end()) sum += it->second.size();
    auto jt = hashed.find(((*rng)() % kKeys) ^ 0x5555);
    if (jt != hashed.end()) sum += jt->second;
  }
  g_reference_sink = g_reference_sink + sum;
}

}  // namespace

double ReferenceKernelCpuS() {
  std::mt19937_64 rng(42);
  const int64_t start = ProcessCpuNs();
  Allocate(&rng);
  Search(&rng);
  return static_cast<double>(ProcessCpuNs() - start) * 1e-9;
}

}  // namespace perfbench
