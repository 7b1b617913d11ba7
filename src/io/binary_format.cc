#include "io/binary_format.h"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include "util/failpoint.h"

namespace sss {

namespace {

constexpr char kMagic[8] = {'S', 'S', 'S', 'D', 'A', 'T', '0', '1'};

uint64_t Fnv1a(const char* data, size_t len, uint64_t h) {
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}
constexpr uint64_t kFnvSeed = 1469598103934665603ULL;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FileHandle = std::unique_ptr<std::FILE, FileCloser>;

class ChecksummingWriter {
 public:
  ChecksummingWriter(std::FILE* f, const std::string& path)
      : f_(f), path_(path) {}

  Status Write(const void* data, size_t len) {
    // An empty dataset hands in a null data pointer; fwrite's pointer
    // argument is declared nonnull even for a zero length.
    if (len == 0) return Status::OK();
    if (std::fwrite(data, 1, len, f_) != len) {
      return Status::IOError("short write to '" + path_ + "'");
    }
    checksum_ = Fnv1a(static_cast<const char*>(data), len, checksum_);
    return Status::OK();
  }

  template <typename T>
  Status WriteScalar(T value) {
    return Write(&value, sizeof(T));
  }

  uint64_t checksum() const { return checksum_; }

 private:
  std::FILE* f_;
  const std::string& path_;
  uint64_t checksum_ = kFnvSeed;
};

class ChecksummingReader {
 public:
  ChecksummingReader(const std::string& contents) : contents_(contents) {}

  Status Read(void* out, size_t len) {
    if (pos_ + len > contents_.size()) {
      return Status::Corruption("binary dataset truncated");
    }
    std::memcpy(out, contents_.data() + pos_, len);
    checksum_ = Fnv1a(contents_.data() + pos_, len, checksum_);
    pos_ += len;
    return Status::OK();
  }

  template <typename T>
  Result<T> ReadScalar() {
    T value{};
    SSS_RETURN_NOT_OK(Read(&value, sizeof(T)));
    return value;
  }

  const char* Cursor() const { return contents_.data() + pos_; }
  size_t Remaining() const { return contents_.size() - pos_; }
  Status Skip(size_t len) {
    if (pos_ + len > contents_.size()) {
      return Status::Corruption("binary dataset truncated");
    }
    checksum_ = Fnv1a(contents_.data() + pos_, len, checksum_);
    pos_ += len;
    return Status::OK();
  }

  uint64_t checksum() const { return checksum_; }

 private:
  const std::string& contents_;
  size_t pos_ = 0;
  uint64_t checksum_ = kFnvSeed;
};

}  // namespace

Status WriteBinaryDataset(const std::string& path, const Dataset& dataset) {
  FileHandle f(std::fopen(path.c_str(), "wb"));
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for writing");
  }
  ChecksummingWriter writer(f.get(), path);

  SSS_RETURN_NOT_OK(writer.Write(kMagic, sizeof(kMagic)));
  SSS_RETURN_NOT_OK(writer.WriteScalar<uint32_t>(
      dataset.alphabet() == AlphabetKind::kDna ? 1u : 0u));
  SSS_RETURN_NOT_OK(writer.WriteScalar<uint32_t>(
      static_cast<uint32_t>(dataset.name().size())));
  SSS_RETURN_NOT_OK(
      writer.Write(dataset.name().data(), dataset.name().size()));
  SSS_RETURN_NOT_OK(
      writer.WriteScalar<uint64_t>(static_cast<uint64_t>(dataset.size())));

  uint64_t offset = 0;
  SSS_RETURN_NOT_OK(writer.WriteScalar<uint64_t>(offset));
  for (size_t id = 0; id < dataset.size(); ++id) {
    offset += dataset.Length(id);
    SSS_RETURN_NOT_OK(writer.WriteScalar<uint64_t>(offset));
  }
  SSS_RETURN_NOT_OK(
      writer.Write(dataset.pool().data(), dataset.pool().total_bytes()));

  // Checksum is over everything preceding it (not itself).
  const uint64_t checksum = writer.checksum();
  if (std::fwrite(&checksum, 1, sizeof(checksum), f.get()) !=
      sizeof(checksum)) {
    return Status::IOError("short write to '" + path + "'");
  }
  return Status::OK();
}

Result<Dataset> ReadBinaryDataset(const std::string& path) {
  SSS_FAILPOINT_STATUS("binary_format:read");
  // Slurp whole file (the format is designed for one read).
  FileHandle f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  std::fseek(f.get(), 0, SEEK_END);
  const long size = std::ftell(f.get());
  if (size < 0) return Status::IOError("cannot stat '" + path + "'");
  std::fseek(f.get(), 0, SEEK_SET);
  std::string contents(static_cast<size_t>(size), '\0');
  if (size > 0 &&
      std::fread(contents.data(), 1, contents.size(), f.get()) !=
          contents.size()) {
    return Status::IOError("short read from '" + path + "'");
  }

  if (contents.size() < sizeof(kMagic) + sizeof(uint64_t)) {
    return Status::Corruption("binary dataset too small to be valid");
  }
  // Body excludes the trailing checksum.
  const std::string body =
      contents.substr(0, contents.size() - sizeof(uint64_t));
  ChecksummingReader reader(body);

  char magic[sizeof(kMagic)];
  SSS_RETURN_NOT_OK(reader.Read(magic, sizeof(magic)));
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("bad magic: not an sss binary dataset");
  }

  SSS_ASSIGN_OR_RETURN(uint32_t alphabet_raw, reader.ReadScalar<uint32_t>());
  if (alphabet_raw > 1) {
    return Status::Corruption("unknown alphabet tag in binary dataset");
  }
  SSS_ASSIGN_OR_RETURN(uint32_t name_len, reader.ReadScalar<uint32_t>());
  if (name_len > reader.Remaining()) {
    return Status::Corruption("binary dataset truncated (name)");
  }
  std::string name(name_len, '\0');
  SSS_RETURN_NOT_OK(reader.Read(name.data(), name_len));

  SSS_ASSIGN_OR_RETURN(uint64_t count, reader.ReadScalar<uint64_t>());
  // Overflow-safe bound check on the offsets table.
  if (count >= reader.Remaining() / sizeof(uint64_t)) {
    return Status::Corruption("binary dataset truncated (offsets)");
  }
  std::vector<uint64_t> offsets(count + 1);
  SSS_RETURN_NOT_OK(
      reader.Read(offsets.data(), offsets.size() * sizeof(uint64_t)));
  for (size_t i = 0; i < count; ++i) {
    if (offsets[i] > offsets[i + 1]) {
      return Status::Corruption("binary dataset has non-monotone offsets");
    }
  }
  if (offsets[count] != reader.Remaining()) {
    return Status::Corruption("binary dataset truncated (string bytes)");
  }

  Dataset dataset(std::move(name), alphabet_raw == 1 ? AlphabetKind::kDna
                                                     : AlphabetKind::kGeneric);
  dataset.Reserve(count, offsets[count]);
  const char* bytes = reader.Cursor();
  for (size_t i = 0; i < count; ++i) {
    dataset.Add(std::string_view(bytes + offsets[i],
                                 offsets[i + 1] - offsets[i]));
  }
  SSS_RETURN_NOT_OK(reader.Skip(offsets[count]));

  uint64_t stored_checksum;
  std::memcpy(&stored_checksum,
              contents.data() + contents.size() - sizeof(uint64_t),
              sizeof(uint64_t));
  if (stored_checksum != reader.checksum()) {
    return Status::Corruption("binary dataset checksum mismatch (corrupt file)");
  }
  return dataset;
}

}  // namespace sss
