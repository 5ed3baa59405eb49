#include "atlarge/trace/atl.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include "atlarge/obs/metrics.hpp"

namespace atlarge::trace {
namespace {

// ---------------------------------------------------------------------------
// Little-endian scalar helpers (the format is LE regardless of host order).

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

// The int type tag in the header and the int encoding tag in each colblock.
constexpr std::uint8_t kIntTag = 0;

constexpr std::array<std::string_view, kAtlColumns> kColumnNames = {
    "t_us", "entity", "kind", "size", "region"};
constexpr std::array<std::int64_t Event::*, kAtlColumns> kColumnFields = {
    &Event::t_us, &Event::entity, &Event::kind, &Event::size, &Event::region};

// The one header every trace carries: magic, version, and the five int
// column descriptors.
const std::vector<std::uint8_t>& event_header() {
  static const std::vector<std::uint8_t> header = [] {
    std::vector<std::uint8_t> h(kAtlMagic, kAtlMagic + sizeof(kAtlMagic));
    put_u32(h, kAtlVersion);
    put_u16(h, static_cast<std::uint16_t>(kAtlColumns));
    for (const std::string_view name : kColumnNames) {
      h.push_back(kIntTag);
      put_u16(h, static_cast<std::uint16_t>(name.size()));
      h.insert(h.end(), name.begin(), name.end());
    }
    return h;
  }();
  return header;
}

constexpr std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k)
      c = (c & 1u) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  return table;
}

constexpr auto kCrcTable = make_crc_table();

// Bounds-checked varint read out of an in-memory span; advances `pos`.
std::uint64_t get_varint(const std::uint8_t* data, std::size_t size,
                         std::size_t& pos) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (pos >= size)
      throw std::runtime_error("atl: truncated varint inside chunk");
    const std::uint8_t byte = data[pos++];
    v |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
    if (!(byte & 0x80u)) return v;
  }
  throw std::runtime_error("atl: malformed varint (too long)");
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::size_t i = 0; i < size; ++i)
    c = kCrcTable[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80u) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80u);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t zigzag_encode(std::int64_t v) noexcept {
  return (static_cast<std::uint64_t>(v) << 1) ^
         static_cast<std::uint64_t>(v >> 63);
}

std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

// ---------------------------------------------------------------------------
// TraceWriter

TraceWriter::TraceWriter(const std::string& path, WriterOptions options)
    : options_(options) {
  if (options_.chunk_rows == 0)
    throw std::invalid_argument("TraceWriter: chunk_rows must be > 0");
  out_.open(path, std::ios::binary | std::ios::trunc);
  if (!out_)
    throw std::runtime_error("TraceWriter: cannot open " + path);
  const auto& header = event_header();
  write_raw(header.data(), header.size());
}

TraceWriter::~TraceWriter() {
  if (!finished_) {
    try {
      finish();
    } catch (...) {
      // Destructors must not throw; call finish() explicitly to observe
      // write errors.
    }
  }
}

void TraceWriter::write_raw(const void* data, std::size_t size) {
  out_.write(static_cast<const char*>(data),
             static_cast<std::streamsize>(size));
  if (!out_) throw std::runtime_error("TraceWriter: write failed");
  bytes_written_ += size;
}

void TraceWriter::append(const Event& event) {
  if (finished_)
    throw std::logic_error("TraceWriter: append after finish()");
  staged_.push_back(event);
  if (staged_.size() >= options_.chunk_rows) flush_chunk();
}

void TraceWriter::flush_chunk() {
  if (staged_.empty()) return;
  frame_.clear();
  put_u32(frame_, kAtlChunkMagic);
  put_u32(frame_, static_cast<std::uint32_t>(staged_.size()));
  for (const auto field : kColumnFields) {
    // Deltas wrap modulo 2^64: unsigned arithmetic keeps extreme
    // neighbours (INT64_MAX after a negative) well defined, and the
    // bytes equal the two's-complement signed difference.
    payload_.clear();
    std::uint64_t prev = 0;
    for (const Event& e : staged_) {
      const auto bits = static_cast<std::uint64_t>(e.*field);
      put_varint(payload_,
                 zigzag_encode(static_cast<std::int64_t>(bits - prev)));
      prev = bits;
    }
    frame_.push_back(kIntTag);
    put_varint(frame_, payload_.size());
    frame_.insert(frame_.end(), payload_.begin(), payload_.end());
  }
  // The CRC covers everything after the chunk magic.
  put_u32(frame_, crc32(frame_.data() + 4, frame_.size() - 4));
  write_raw(frame_.data(), frame_.size());
  rows_written_ += staged_.size();
  ++chunks_written_;
  staged_.clear();
}

void TraceWriter::finish() {
  if (finished_) return;
  flush_chunk();
  out_.close();
  if (out_.fail()) throw std::runtime_error("TraceWriter: close failed");
  finished_ = true;
}

// ---------------------------------------------------------------------------
// TraceReader

TraceReader::TraceReader(const std::string& path, ReaderOptions options)
    : options_(options) {
  in_.open(path, std::ios::binary | std::ios::ate);
  if (!in_) throw std::runtime_error("TraceReader: cannot open " + path);
  unread_ = static_cast<std::uint64_t>(in_.tellg());
  in_.seekg(0);

  const auto& want = event_header();
  std::vector<std::uint8_t> got(static_cast<std::size_t>(
      std::min<std::uint64_t>(unread_, want.size())));
  if (!read_exact(got.data(), got.size()) ||
      got.size() < sizeof(kAtlMagic) ||
      std::memcmp(got.data(), kAtlMagic, sizeof(kAtlMagic)) != 0)
    throw std::runtime_error("TraceReader: not an .atl file: " + path);
  if (got.size() >= sizeof(kAtlMagic) + 4) {
    const std::uint32_t version = load_u32(got.data() + sizeof(kAtlMagic));
    if (version != kAtlVersion)
      throw std::runtime_error("TraceReader: unsupported .atl version " +
                               std::to_string(version));
  }
  if (got != want)
    throw std::runtime_error(
        "TraceReader: " + path +
        " does not carry the event header (five int columns: t_us, "
        "entity, kind, size, region)");
}

bool TraceReader::read_exact(void* data, std::size_t size) {
  if (size > unread_) return false;
  in_.read(static_cast<char*>(data), static_cast<std::streamsize>(size));
  if (static_cast<std::size_t>(in_.gcount()) != size) return false;
  unread_ -= size;
  return true;
}

bool TraceReader::next_chunk() {
  chunk_rows_ = 0;
  if (truncated_ || unread_ == 0) return false;  // clean end of file

  // A chunk is consumed in two phases: (1) pull the framed bytes off the
  // file into buffer_ (rows count + colblocks, exactly the CRC'd span),
  // classifying any short read as a crash tail; (2) verify the CRC and
  // decode — from here on every defect is corruption and throws.
  const auto fail_truncated = [&]() -> bool {
    if (options_.allow_partial_tail) {
      truncated_ = true;
      return false;
    }
    throw std::runtime_error(
        "TraceReader: truncated chunk (use allow_partial_tail to accept a "
        "crash tail)");
  };

  std::uint8_t word[4];
  if (!read_exact(word, sizeof(word))) return fail_truncated();
  if (load_u32(word) != kAtlChunkMagic)
    throw std::runtime_error("TraceReader: bad chunk magic (corrupt file)");

  // Every length is checked against the bytes the file still holds before
  // it grows the buffer, so a corrupt length costs no allocation.
  buffer_.clear();
  const auto pull = [&](std::uint64_t n) -> bool {
    if (n > unread_) return false;
    const std::size_t off = buffer_.size();
    buffer_.resize(off + static_cast<std::size_t>(n));
    return read_exact(buffer_.data() + off, static_cast<std::size_t>(n));
  };

  if (!pull(4)) return fail_truncated();
  const std::uint32_t rows = load_u32(buffer_.data());
  if (rows == 0)
    throw std::runtime_error("TraceReader: chunk with zero rows");

  struct Span {
    std::size_t off = 0;
    std::size_t len = 0;
  };
  std::array<Span, kAtlColumns> payloads;
  for (std::size_t c = 0; c < kAtlColumns; ++c) {
    if (!pull(1)) return fail_truncated();
    if (buffer_.back() != kIntTag)
      throw std::runtime_error("TraceReader: column encoding mismatch in " +
                               std::string(kColumnNames[c]));
    // Varint payload length, pulled byte by byte so it lands in buffer_
    // (it is part of the CRC'd span).
    std::uint64_t len = 0;
    for (int shift = 0;; shift += 7) {
      if (shift >= 64)
        throw std::runtime_error("TraceReader: malformed payload length");
      if (!pull(1)) return fail_truncated();
      const std::uint8_t byte = buffer_.back();
      len |= static_cast<std::uint64_t>(byte & 0x7Fu) << shift;
      if (!(byte & 0x80u)) break;
    }
    payloads[c].off = buffer_.size();
    if (!pull(len)) return fail_truncated();
    payloads[c].len = static_cast<std::size_t>(len);
  }

  std::uint8_t crc_bytes[4];
  if (!read_exact(crc_bytes, sizeof(crc_bytes))) return fail_truncated();
  if (load_u32(crc_bytes) != crc32(buffer_.data(), buffer_.size()))
    throw std::runtime_error(
        "TraceReader: CRC mismatch in chunk " +
        std::to_string(chunks_read_ + 1) + " (corrupt file)");

  // Phase 2: decode each colblock.
  for (std::size_t c = 0; c < kAtlColumns; ++c) {
    const std::uint8_t* data = buffer_.data() + payloads[c].off;
    const std::size_t size = payloads[c].len;
    // Every cell takes at least one byte, so a shorter payload is corrupt;
    // checking first bounds the reserve by the bytes the file holds.
    if (size < rows)
      throw std::runtime_error("TraceReader: column " +
                               std::string(kColumnNames[c]) +
                               " is shorter than its row count");
    auto& col = cols_[c];
    col.clear();
    col.reserve(rows);
    std::size_t pos = 0;
    std::uint64_t prev = 0;  // wrapping sum, mirroring the writer
    for (std::uint32_t r = 0; r < rows; ++r) {
      prev += static_cast<std::uint64_t>(
          zigzag_decode(get_varint(data, size, pos)));
      col.push_back(static_cast<std::int64_t>(prev));
    }
    if (pos != size)
      throw std::runtime_error("TraceReader: trailing bytes in column " +
                               std::string(kColumnNames[c]));
  }

  chunk_rows_ = rows;
  rows_read_ += rows;
  ++chunks_read_;
  account_residency();
  return true;
}

void TraceReader::account_residency() {
  std::uint64_t resident = buffer_.capacity();
  for (const auto& c : cols_) resident += c.capacity() * sizeof(c[0]);
  if (resident > peak_resident_) peak_resident_ = resident;
  if (options_.obs != nullptr) {
    options_.obs->counter("trace.reader_chunks").add(1);
    options_.obs->counter("trace.reader_rows").add(chunk_rows_);
    options_.obs->gauge("trace.reader_resident_bytes")
        .set(static_cast<double>(peak_resident_));
  }
}

// ---------------------------------------------------------------------------
// AtlEventStream

bool AtlEventStream::next(Event& out) {
  while (row_ >= reader_->rows()) {
    if (!reader_->next_chunk()) return false;
    row_ = 0;
  }
  for (std::size_t c = 0; c < kAtlColumns; ++c)
    out.*kColumnFields[c] = reader_->int_column(c)[row_];
  ++row_;
  return true;
}

}  // namespace atlarge::trace
