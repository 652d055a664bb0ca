#ifndef PAM_TESTS_TESTING_MUTATE_H_
#define PAM_TESTS_TESTING_MUTATE_H_

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "pam/util/prng.h"

namespace pam::testing {

/// The seeded byte-level mutators of the fuzz drivers (reader_fuzz_test,
/// frame_fuzz_test). Every draw comes from the caller's Prng, so a driver
/// with a fixed seed and budget tries the same inputs on every run, and a
/// failure names the trial that caused it.
using Bytes = std::string;

/// What a driver adds to the generic mutations.
struct MutationSpace {
  /// Bytes that set and insert mutations draw 7 times in 8 (the format's
  /// meaningful bytes); empty draws every byte uniformly.
  std::string_view alphabet;
  /// A format-aware mutation, e.g. one length word set to a boundary
  /// value; none when empty.
  std::function<void(Bytes&, Prng&)> word;
};

inline char RandomByte(Prng& rng, std::string_view alphabet) {
  if (!alphabet.empty() && rng.NextBounded(8) != 0) {
    return alphabet[rng.NextBounded(alphabet.size())];
  }
  return static_cast<char>(rng.NextBounded(256));
}

/// One to three mutations of one seed: set or flip a byte, insert or
/// delete a run, truncate, splice with another seed, or the space's word
/// mutation.
inline Bytes Mutate(const std::vector<Bytes>& seeds,
                    const MutationSpace& space, Prng& rng) {
  Bytes b = seeds[rng.NextBounded(seeds.size())];
  const std::uint64_t rounds = 1 + rng.NextBounded(3);
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::size_t pos = rng.NextBounded(b.size() + 1);
    const std::size_t run = 1 + rng.NextBounded(8);
    switch (rng.NextBounded(space.word ? 7 : 6)) {
      case 0:
        if (pos < b.size()) b[pos] = RandomByte(rng, space.alphabet);
        break;
      case 1:
        if (pos < b.size()) {
          b[pos] = static_cast<char>(b[pos] ^ (1 << rng.NextBounded(8)));
        }
        break;
      case 2:
        for (std::size_t i = 0; i < run; ++i) {
          b.insert(b.begin() + static_cast<std::ptrdiff_t>(pos),
                   RandomByte(rng, space.alphabet));
        }
        break;
      case 3:
        b.erase(pos, run);
        break;
      case 4:
        b.resize(pos);
        break;
      case 5: {
        const Bytes& other = seeds[rng.NextBounded(seeds.size())];
        b = b.substr(0, pos) + other.substr(rng.NextBounded(other.size() + 1));
        break;
      }
      default:
        space.word(b, rng);
        break;
    }
  }
  return b;
}

/// The input with every byte outside printable ASCII escaped, for failure
/// messages.
inline std::string Printable(const Bytes& bytes) {
  std::string out;
  for (unsigned char c : bytes) {
    if (c >= 0x20 && c < 0x7f && c != '\\') {
      out += static_cast<char>(c);
    } else {
      char buf[5];
      std::snprintf(buf, sizeof(buf), "\\x%02x", c);
      out += buf;
    }
  }
  return out;
}

}  // namespace pam::testing

#endif  // PAM_TESTS_TESTING_MUTATE_H_
