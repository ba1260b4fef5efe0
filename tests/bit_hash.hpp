#pragma once
// FNV-1a over 64-bit words, for pinning the exact bits of a numerical result
// (a lowering, a stationary solve) in a test.

#include <cstdint>
#include <cstring>

namespace patchsec::testing {

class Fnv1a {
 public:
  void word(std::uint64_t w) {
    for (int b = 0; b < 8; ++b) {
      hash_ ^= (w >> (8 * b)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void real(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    word(bits);
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return hash_; }

 private:
  std::uint64_t hash_ = 1469598103934665603ull;
};

}  // namespace patchsec::testing
