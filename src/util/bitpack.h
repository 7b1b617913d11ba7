// Dense DNA packing — the paper's "Dictionary Compression" future-work item
// (§6). Two codecs:
//   * Dna2Codec (2 bits, {A,C,G,T}) feeds a search path: core/lane_pool
//     stores pure-ACGT lane groups as one byte of four 2-bit codes per
//     column, which the lane kernels (core/simd_verify) read directly.
//   * DnaCodec / PackedDna / PackedDnaPool (3 bits, {A,C,G,N,T}) shrink a
//     read to 3/8 of its byte size. No engine, tool, bench or example
//     reads them; only their own tests do.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"
#include "util/status.h"

namespace sss {

/// \brief Codec mapping a small alphabet to dense 3-bit codes.
class DnaCodec {
 public:
  /// The canonical read alphabet in code order: code(A)=0 … code(T)=4.
  static constexpr const char kAlphabet[6] = "ACGNT";
  static constexpr int kAlphabetSize = 5;
  static constexpr int kBitsPerSymbol = 3;
  static constexpr uint8_t kInvalidCode = 0xFF;

  /// \brief Code for `c`, or kInvalidCode when c is outside the alphabet.
  static uint8_t Encode(char c) noexcept {
    switch (c) {
      case 'A': return 0;
      case 'C': return 1;
      case 'G': return 2;
      case 'N': return 3;
      case 'T': return 4;
      default:  return kInvalidCode;
    }
  }

  /// \brief Symbol for code 0..4. Precondition: code < kAlphabetSize.
  static char Decode(uint8_t code) noexcept { return kAlphabet[code]; }

  /// \brief True iff every character of `s` is in the alphabet.
  static bool IsValid(std::string_view s) noexcept {
    for (char c : s) {
      if (Encode(c) == kInvalidCode) return false;
    }
    return true;
  }
};

/// \brief A DNA string packed at 3 bits/symbol into little-endian 64-bit
/// words (21 symbols + 1 spare bit per word).
class PackedDna {
 public:
  PackedDna() = default;

  /// \brief Packs `s`; fails with Invalid if `s` contains a symbol outside
  /// {A,C,G,N,T}.
  static Result<PackedDna> Pack(std::string_view s);

  /// \brief Number of symbols.
  size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// \brief Code of the symbol at position i (0..4).
  uint8_t CodeAt(size_t i) const noexcept {
    const size_t word = i / kSymbolsPerWord;
    const unsigned shift =
        static_cast<unsigned>(i % kSymbolsPerWord) * DnaCodec::kBitsPerSymbol;
    return static_cast<uint8_t>((words_[word] >> shift) & 0x7u);
  }

  /// \brief Character at position i.
  char At(size_t i) const noexcept { return DnaCodec::Decode(CodeAt(i)); }

  /// \brief Unpacks back to text.
  std::string Unpack() const;

  /// \brief Bytes of packed storage held (for compression-ratio reporting).
  size_t packed_bytes() const noexcept { return words_.size() * 8; }

  /// \brief Backing words (each holds up to 21 symbols, LSB-first).
  const std::vector<uint64_t>& words() const noexcept { return words_; }

  static constexpr size_t kSymbolsPerWord = 21;

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

/// \brief Codec mapping the pure read alphabet {A,C,G,T} to dense 2-bit
/// codes — the densest encoding the lane kernels (core/simd_verify) can
/// exploit: four symbols per byte, so one candidate-pool column byte carries
/// one symbol from each of four lanes. 'N' has no code here on purpose;
/// reads containing it fall back to the byte layout (see core/lane_pool).
class Dna2Codec {
 public:
  /// The alphabet in code order: code(A)=0, code(C)=1, code(G)=2, code(T)=3.
  static constexpr const char kAlphabet[5] = "ACGT";
  static constexpr int kAlphabetSize = 4;
  static constexpr int kBitsPerSymbol = 2;
  static constexpr size_t kSymbolsPerByte = 4;
  static constexpr uint8_t kInvalidCode = 0xFF;

  /// \brief Code for `c`, or kInvalidCode when c is outside {A,C,G,T}.
  static uint8_t Encode(char c) noexcept {
    switch (c) {
      case 'A': return 0;
      case 'C': return 1;
      case 'G': return 2;
      case 'T': return 3;
      default:  return kInvalidCode;
    }
  }

  /// \brief Symbol for code 0..3. Precondition: code < kAlphabetSize.
  static char Decode(uint8_t code) noexcept { return kAlphabet[code]; }

  /// \brief True iff every character of `s` is in the alphabet.
  static bool IsValid(std::string_view s) noexcept {
    for (char c : s) {
      if (Encode(c) == kInvalidCode) return false;
    }
    return true;
  }
};

/// \brief Packs `s` at 2 bits/symbol, LSB-first within each byte (symbol i
/// occupies bits [2·(i mod 4), 2·(i mod 4)+1] of byte i/4; a final partial
/// byte is zero-padded). Appends ⌈|s|/4⌉ bytes to `out`. Fails with Invalid
/// — and leaves `out` exactly as it was — if `s` contains a symbol outside
/// {A,C,G,T}.
Status PackDna2Into(std::string_view s, std::vector<uint8_t>* out);

/// \brief Decodes `n` symbols from `packed` (the layout PackDna2Into
/// writes; `packed` must hold at least ⌈n/4⌉ bytes). Total inverse of
/// PackDna2Into: any byte content round-trips through Unpack→Pack over the
/// 2·n bits it occupies.
std::string UnpackDna2(const uint8_t* packed, size_t n);

/// \brief A pool of packed DNA strings with contiguous word storage,
/// mirroring StringPool for the packed representation.
class PackedDnaPool {
 public:
  /// \brief Packs and appends `s`; returns its id or Invalid on bad symbols.
  Result<uint32_t> Add(std::string_view s);

  size_t size() const noexcept { return lengths_.size(); }

  /// \brief Symbol count of entry `id`.
  size_t Length(size_t id) const noexcept { return lengths_[id]; }

  /// \brief Code of symbol `i` of entry `id`.
  uint8_t CodeAt(size_t id, size_t i) const noexcept {
    const uint64_t base = word_offsets_[id];
    const size_t word = i / PackedDna::kSymbolsPerWord;
    const unsigned shift = static_cast<unsigned>(
        (i % PackedDna::kSymbolsPerWord) * DnaCodec::kBitsPerSymbol);
    return static_cast<uint8_t>((words_[base + word] >> shift) & 0x7u);
  }

  /// \brief Unpacks entry `id` to text.
  std::string Unpack(size_t id) const;

  /// \brief Decodes entry `id` into `out` as 0..4 codes (resized to fit).
  /// Decoding into a reusable buffer keeps the verify loop allocation-free.
  void DecodeCodes(size_t id, std::vector<uint8_t>* out) const;

  /// \brief Total packed bytes held.
  size_t packed_bytes() const noexcept { return words_.size() * 8; }

  /// \brief Total unpacked symbol count (for ratio reporting).
  size_t total_symbols() const noexcept { return total_symbols_; }

 private:
  std::vector<uint64_t> words_;
  std::vector<uint64_t> word_offsets_;  // first word of each entry
  std::vector<uint32_t> lengths_;
  size_t total_symbols_ = 0;
};

}  // namespace sss
