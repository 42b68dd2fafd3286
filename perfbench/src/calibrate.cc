#include "calibrate.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <random>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

namespace perfbench {

namespace {

// Allocates and frees blocks of 16 to 520 bytes, 5,000 live at a time.
uint64_t Churn() {
  std::vector<void*> live;
  live.reserve(5001);
  uint64_t sum = 0;
  for (int k = 0; k < 1000000; ++k) {
    void* p = std::malloc(16 + static_cast<size_t>(k % 64) * 8);
    sum += reinterpret_cast<uintptr_t>(p) & 0xff;
    live.push_back(p);
    if (live.size() > 5000) {
      for (void* q : live) std::free(q);
      live.clear();
    }
  }
  for (void* q : live) std::free(q);
  return sum;
}

// Groups 150,000 keys into 50,000 buckets, then looks up 300,000 keys.
uint64_t Hash() {
  std::mt19937_64 rng(7);
  std::unordered_map<uint64_t, std::vector<uint32_t>> groups;
  for (uint32_t k = 0; k < 150000; ++k) groups[rng() % 50000].push_back(k);
  uint64_t sum = 0;
  for (int k = 0; k < 300000; ++k) {
    auto it = groups.find(rng() % 60000);
    if (it != groups.end()) sum += it->second.size();
  }
  return sum;
}

// Sorts 100,000 (small integer, short string) pairs.
uint64_t Sort() {
  std::mt19937_64 rng(9);
  std::vector<std::pair<uint64_t, std::string>> rows;
  rows.reserve(100000);
  for (int k = 0; k < 100000; ++k) {
    rows.emplace_back(rng() % 1000, std::to_string(rng() % 100000));
  }
  std::sort(rows.begin(), rows.end());
  return rows[rows.size() / 2].first + rows.front().second.size();
}

// Written after every run, so that no part of the kernel can be optimized
// away.
volatile uint64_t g_sink = 0;

}  // namespace

double CalibrationSeconds() {
  const auto start = std::chrono::steady_clock::now();
  g_sink = Churn() + Hash() + Sort();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

}  // namespace perfbench
