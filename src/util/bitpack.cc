#include "util/bitpack.h"

namespace sss {

Status PackDna2Into(std::string_view s, std::vector<uint8_t>* out) {
  const size_t before = out->size();
  uint8_t byte = 0;
  unsigned filled = 0;
  for (char c : s) {
    const uint8_t code = Dna2Codec::Encode(c);
    if (code == Dna2Codec::kInvalidCode) {
      out->resize(before);  // roll back a partial append
      return Status::Invalid("PackDna2Into: symbol outside {A,C,G,T}");
    }
    byte |= static_cast<uint8_t>(code << (filled * Dna2Codec::kBitsPerSymbol));
    if (++filled == Dna2Codec::kSymbolsPerByte) {
      out->push_back(byte);
      byte = 0;
      filled = 0;
    }
  }
  if (filled > 0) out->push_back(byte);
  return Status::OK();
}

std::string UnpackDna2(const uint8_t* packed, size_t n) {
  std::string out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const unsigned shift = static_cast<unsigned>(i % Dna2Codec::kSymbolsPerByte) *
                           Dna2Codec::kBitsPerSymbol;
    out.push_back(Dna2Codec::Decode(
        static_cast<uint8_t>((packed[i / Dna2Codec::kSymbolsPerByte] >> shift) &
                             0x3u)));
  }
  return out;
}

}  // namespace sss
