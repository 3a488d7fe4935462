#include "hg/io_binary.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "hg/io_hmetis.hpp"
#include "util/errors.hpp"
#include "util/rng.hpp"

namespace fixedpart::hg {

static_assert(std::endian::native == std::endian::little,
              ".fpbin is a little-endian format; big-endian hosts would "
              "need byte swapping that this repository does not carry");

namespace {

// 'FPBIN' + a non-ASCII byte (tripwire for ASCII-mode transfers and for
// text sniffers) + CRLF (corrupted by newline translation).
constexpr unsigned char kMagic[kFpbinMagicBytes] = {'F', 'P', 'B',  'I',
                                                    'N', 0xbf, '\r', '\n'};

constexpr std::uint32_t kFlagWideOffsets = 1u << 0;
constexpr std::uint64_t kWideThreshold = std::uint64_t{1} << 31;
constexpr std::uint32_t kMaxResources = 1024;

struct RawHeader {
  char magic[kFpbinMagicBytes];
  std::uint32_t version;
  std::uint32_t flags;
  std::uint64_t num_vertices;
  std::uint64_t num_nets;
  std::uint64_t num_pins;
  std::uint32_t num_resources;
  std::uint32_t num_parts;
  std::uint64_t num_fixed;
  std::uint64_t num_pads;
  std::int64_t max_weighted_degree;
  std::uint64_t payload_bytes;
  std::uint64_t checksum;
  std::uint64_t reserved;
};
static_assert(sizeof(RawHeader) == kFpbinHeaderBytes);

struct FixedEntry {
  std::uint32_t vertex;
  std::uint32_t reserved;
  std::uint64_t mask;
};
static_assert(sizeof(FixedEntry) == 16);

std::uint64_t fnv1a_64(const std::byte* data, std::size_t size) {
  return util::fnv1a(
      std::string_view(reinterpret_cast<const char*>(data), size));
}

std::uint64_t align8(std::uint64_t n) { return (n + 7) & ~std::uint64_t{7}; }

[[noreturn]] void fail(const std::string& source, const std::string& msg) {
  throw ParseError(source, 0, msg);
}

/// Pointers into a validated payload. Offset arrays come in either width;
/// exactly one of each off32/off64 pair is non-null.
struct SectionView {
  const std::uint32_t* net_off32 = nullptr;
  const std::int64_t* net_off64 = nullptr;
  const VertexId* net_pins = nullptr;
  const std::uint32_t* vtx_off32 = nullptr;
  const std::int64_t* vtx_off64 = nullptr;
  const NetId* vtx_nets = nullptr;
  const Weight* net_weights = nullptr;
  const Weight* vertex_weights = nullptr;
  const Weight* total_weights = nullptr;
  const std::uint8_t* pad_flags = nullptr;
  const FixedEntry* fixed = nullptr;
};

struct ParsedFile {
  RawHeader header;
  FpbinLayout layout;
  SectionView sections;
};

template <typename Offset>
void validate_csr(const std::string& source, const Offset* offsets,
                  std::int64_t count, std::int64_t num_pins,
                  const std::int32_t* ids, std::int64_t id_bound,
                  const char* what) {
  if (static_cast<std::int64_t>(offsets[0]) != 0) {
    fail(source, std::string(what) + " offsets do not start at 0");
  }
  if (static_cast<std::int64_t>(offsets[count]) != num_pins) {
    fail(source, std::string(what) + " offsets do not span the pin count");
  }
  for (std::int64_t i = 0; i < count; ++i) {
    const auto lo = static_cast<std::int64_t>(offsets[i]);
    const auto hi = static_cast<std::int64_t>(offsets[i + 1]);
    if (lo > hi) fail(source, std::string(what) + " offsets not monotone");
    for (std::int64_t j = lo; j < hi; ++j) {
      const std::int32_t id = ids[j];
      if (id < 0 || id >= id_bound) {
        fail(source, std::string(what) + " entry out of range");
      }
      if (j > lo && ids[j - 1] >= id) {
        fail(source, std::string(what) + " entries not sorted/unique");
      }
    }
  }
}

ParsedFile parse_and_validate(const std::byte* data, std::size_t size,
                              const std::string& source) {
  ParsedFile out;
  if (size < kFpbinHeaderBytes) fail(source, "truncated .fpbin header");
  std::memcpy(&out.header, data, sizeof(RawHeader));
  const RawHeader& h = out.header;
  if (std::memcmp(h.magic, kMagic, kFpbinMagicBytes) != 0) {
    fail(source, "not a .fpbin file (bad magic)");
  }
  if (h.version != kFpbinVersion) {
    fail(source, "unsupported .fpbin version " + std::to_string(h.version) +
                     " (expected " + std::to_string(kFpbinVersion) + ")");
  }
  if ((h.flags & ~kFlagWideOffsets) != 0) {
    fail(source, "unknown .fpbin flags");
  }
  constexpr std::uint64_t kMaxId =
      static_cast<std::uint64_t>(std::numeric_limits<VertexId>::max());
  if (h.num_vertices > kMaxId) fail(source, "vertex count exceeds id range");
  if (h.num_nets > kMaxId) fail(source, "net count exceeds id range");
  if (h.num_resources < 1 || h.num_resources > kMaxResources) {
    fail(source, "bad resource count");
  }
  if (h.num_parts < 2 ||
      h.num_parts > static_cast<std::uint32_t>(FixedAssignment::kMaxParts)) {
    fail(source, "bad partition count");
  }
  if (h.num_fixed > h.num_vertices) fail(source, "bad fixed-vertex count");
  if (h.num_pads > h.num_vertices) fail(source, "bad pad count");
  if (h.max_weighted_degree < 0) fail(source, "bad max weighted degree");
  const bool wide = (h.flags & kFlagWideOffsets) != 0;
  if (wide != (h.num_pins >= kWideThreshold)) {
    fail(source, "offset width flag contradicts the pin count");
  }

  out.layout = fpbin_layout(h.num_vertices, h.num_nets, h.num_pins,
                            h.num_resources, h.num_fixed);
  if (h.payload_bytes != out.layout.payload_bytes) {
    fail(source, "payload size disagrees with header counts");
  }
  if (size != kFpbinHeaderBytes + h.payload_bytes) {
    fail(source, "truncated or oversized .fpbin payload");
  }
  const std::byte* payload = data + kFpbinHeaderBytes;
  if (fnv1a_64(payload, h.payload_bytes) != h.checksum) {
    fail(source, "checksum mismatch (corrupted .fpbin)");
  }

  SectionView& s = out.sections;
  const FpbinLayout& lay = out.layout;
  auto at = [&](std::uint64_t off) { return payload + off; };
  if (wide) {
    s.net_off64 = reinterpret_cast<const std::int64_t*>(at(lay.net_offsets));
    s.vtx_off64 = reinterpret_cast<const std::int64_t*>(at(lay.vtx_offsets));
  } else {
    s.net_off32 = reinterpret_cast<const std::uint32_t*>(at(lay.net_offsets));
    s.vtx_off32 = reinterpret_cast<const std::uint32_t*>(at(lay.vtx_offsets));
  }
  s.net_pins = reinterpret_cast<const VertexId*>(at(lay.net_pins));
  s.vtx_nets = reinterpret_cast<const NetId*>(at(lay.vtx_nets));
  s.net_weights = reinterpret_cast<const Weight*>(at(lay.net_weights));
  s.vertex_weights = reinterpret_cast<const Weight*>(at(lay.vertex_weights));
  s.total_weights = reinterpret_cast<const Weight*>(at(lay.total_weights));
  s.pad_flags = reinterpret_cast<const std::uint8_t*>(at(lay.pad_flags));
  s.fixed = reinterpret_cast<const FixedEntry*>(at(lay.fixed));

  const auto nv = static_cast<std::int64_t>(h.num_vertices);
  const auto ne = static_cast<std::int64_t>(h.num_nets);
  const auto np = static_cast<std::int64_t>(h.num_pins);
  if (wide) {
    validate_csr(source, s.net_off64, ne, np, s.net_pins, nv, "net");
    validate_csr(source, s.vtx_off64, nv, np, s.vtx_nets, ne, "vertex");
  } else {
    validate_csr(source, s.net_off32, ne, np, s.net_pins, nv, "net");
    validate_csr(source, s.vtx_off32, nv, np, s.vtx_nets, ne, "vertex");
  }
  for (std::int64_t e = 0; e < ne; ++e) {
    if (s.net_weights[e] < 0) fail(source, "negative net weight");
  }
  const std::int64_t weight_count = nv * h.num_resources;
  for (std::int64_t i = 0; i < weight_count; ++i) {
    if (s.vertex_weights[i] < 0) fail(source, "negative vertex weight");
  }
  std::int64_t pads = 0;
  for (std::int64_t v = 0; v < nv; ++v) {
    if (s.pad_flags[v] > 1) fail(source, "bad pad flag");
    pads += s.pad_flags[v];
  }
  if (pads != static_cast<std::int64_t>(h.num_pads)) {
    fail(source, "pad count disagrees with pad flags");
  }
  const std::uint64_t full_mask =
      h.num_parts >= 64 ? ~std::uint64_t{0}
                        : (std::uint64_t{1} << h.num_parts) - 1;
  for (std::uint64_t i = 0; i < h.num_fixed; ++i) {
    const FixedEntry& f = s.fixed[i];
    if (f.vertex >= h.num_vertices) fail(source, "fixed vertex out of range");
    if (f.mask == 0 || (f.mask & ~full_mask) != 0) {
      fail(source, "bad fixed-vertex mask");
    }
  }
  return out;
}

std::ifstream open_in(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw util::InputError("cannot open for reading: " + path);
  return in;
}

[[noreturn]] void sys_fail(const std::string& path, const char* what) {
  throw util::InputError(std::string(what) + " failed for " + path + ": " +
                         std::strerror(errno));
}

}  // namespace

bool is_fpbin(std::string_view bytes) {
  return bytes.size() >= kFpbinMagicBytes &&
         std::memcmp(bytes.data(), kMagic, kFpbinMagicBytes) == 0;
}

FpbinLayout fpbin_layout(std::uint64_t num_vertices, std::uint64_t num_nets,
                         std::uint64_t num_pins, std::uint32_t num_resources,
                         std::uint64_t num_fixed) {
  FpbinLayout lay;
  lay.wide_offsets = num_pins >= kWideThreshold;
  const std::uint64_t off_bytes = lay.wide_offsets ? 8 : 4;
  std::uint64_t at = 0;
  auto section = [&](std::uint64_t bytes) {
    const std::uint64_t start = at;
    at = align8(at + bytes);
    return start;
  };
  lay.total_weights = section(num_resources * sizeof(Weight));
  lay.net_offsets = section((num_nets + 1) * off_bytes);
  lay.net_pins = section(num_pins * sizeof(VertexId));
  lay.vtx_offsets = section((num_vertices + 1) * off_bytes);
  lay.vtx_nets = section(num_pins * sizeof(NetId));
  lay.net_weights = section(num_nets * sizeof(Weight));
  lay.vertex_weights = section(num_vertices * num_resources * sizeof(Weight));
  lay.pad_flags = section(num_vertices * sizeof(std::uint8_t));
  lay.fixed = section(num_fixed * sizeof(FixedEntry));
  lay.payload_bytes = at;
  return lay;
}

// ---------------------------------------------------------------------------
// FpbinWriter

FpbinWriter::FpbinWriter(std::string path, int num_resources,
                         PartitionId num_parts)
    : path_(std::move(path)),
      num_resources_(num_resources),
      num_parts_(num_parts) {
  if (num_resources < 1 ||
      num_resources > static_cast<int>(kMaxResources)) {
    throw std::invalid_argument("FpbinWriter: bad resource count");
  }
  if (num_parts < 2 || num_parts > FixedAssignment::kMaxParts) {
    throw std::invalid_argument("FpbinWriter: bad partition count");
  }
  total_weights_.assign(static_cast<std::size_t>(num_resources), 0);
}

FpbinWriter::~FpbinWriter() {
  if (map_ != nullptr) munmap(map_, map_bytes_);
  if (fd_ != -1) close(fd_);
}

void FpbinWriter::fail_usage(const std::string& msg) const {
  throw std::logic_error("FpbinWriter: " + msg);
}

void FpbinWriter::check_pins(std::span<const VertexId> pins) const {
  const auto nv = static_cast<VertexId>(pad_flags_.size());
  for (std::size_t i = 0; i < pins.size(); ++i) {
    if (pins[i] < 0 || pins[i] >= nv) {
      throw std::invalid_argument("FpbinWriter: pin out of range");
    }
    if (i > 0 && pins[i - 1] >= pins[i]) {
      throw std::invalid_argument("FpbinWriter: pins not sorted/unique");
    }
  }
}

VertexId FpbinWriter::add_vertex(std::span<const Weight> weights,
                                 bool is_pad) {
  if (phase_ != 0) fail_usage("add_vertex after begin_nets");
  if (static_cast<int>(weights.size()) != num_resources_) {
    throw std::invalid_argument("FpbinWriter: wrong resource count");
  }
  if (pad_flags_.size() >=
      static_cast<std::size_t>(std::numeric_limits<VertexId>::max())) {
    throw std::length_error("FpbinWriter: vertex count exceeds id range");
  }
  for (int r = 0; r < num_resources_; ++r) {
    if (weights[static_cast<std::size_t>(r)] < 0) {
      throw std::invalid_argument("FpbinWriter: negative weight");
    }
    total_weights_[static_cast<std::size_t>(r)] +=
        weights[static_cast<std::size_t>(r)];
  }
  vertex_weights_.insert(vertex_weights_.end(), weights.begin(),
                         weights.end());
  pad_flags_.push_back(is_pad ? 1 : 0);
  vtx_degrees_.push_back(0);
  if (is_pad) ++num_pads_;
  return static_cast<VertexId>(pad_flags_.size()) - 1;
}

VertexId FpbinWriter::add_vertex(Weight area, bool is_pad) {
  return add_vertex(std::span<const Weight>{&area, 1}, is_pad);
}

void FpbinWriter::add_fixed(VertexId v, std::uint64_t mask) {
  if (phase_ != 0) fail_usage("add_fixed after begin_nets");
  if (v < 0 || static_cast<std::size_t>(v) >= pad_flags_.size()) {
    throw std::invalid_argument("FpbinWriter: fixed vertex out of range");
  }
  const std::uint64_t full =
      num_parts_ >= 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << num_parts_) - 1;
  if (mask == 0 || (mask & ~full) != 0) {
    throw std::invalid_argument("FpbinWriter: bad fixed mask");
  }
  fixed_entries_.emplace_back(static_cast<std::uint32_t>(v), mask);
}

void FpbinWriter::count_net(std::span<const VertexId> pins) {
  if (phase_ != 0) fail_usage("count_net after begin_nets");
  if (net_degrees_.size() >=
      static_cast<std::size_t>(std::numeric_limits<NetId>::max())) {
    throw std::length_error("FpbinWriter: net count exceeds id range");
  }
  check_pins(pins);
  net_degrees_.push_back(static_cast<std::uint32_t>(pins.size()));
  pins_ += pins.size();
  for (VertexId v : pins) ++vtx_degrees_[static_cast<std::size_t>(v)];
}

void FpbinWriter::begin_nets() {
  if (phase_ != 0) fail_usage("begin_nets called twice");
  phase_ = 1;
  num_nets_ = net_degrees_.size();

  // The single point where the pin total is validated against the id-width
  // decision: 32-bit offsets iff num_pins < 2^31.
  layout_ = fpbin_layout(pad_flags_.size(), net_degrees_.size(), pins_,
                         static_cast<std::uint32_t>(num_resources_),
                         fixed_entries_.size());

  fd_ = open(path_.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (fd_ == -1) sys_fail(path_, "open");
  map_bytes_ = kFpbinHeaderBytes + layout_.payload_bytes;
  if (ftruncate(fd_, static_cast<off_t>(map_bytes_)) != 0) {
    sys_fail(path_, "ftruncate");
  }
  void* m = mmap(nullptr, map_bytes_, PROT_READ | PROT_WRITE, MAP_SHARED,
                 fd_, 0);
  if (m == MAP_FAILED) sys_fail(path_, "mmap");
  map_ = static_cast<std::byte*>(m);

  std::byte* payload = map_ + kFpbinHeaderBytes;
  std::memcpy(payload + layout_.total_weights, total_weights_.data(),
              total_weights_.size() * sizeof(Weight));
  std::memcpy(payload + layout_.vertex_weights, vertex_weights_.data(),
              vertex_weights_.size() * sizeof(Weight));
  std::memcpy(payload + layout_.pad_flags, pad_flags_.data(),
              pad_flags_.size());
  auto* fixed_out =
      reinterpret_cast<FixedEntry*>(payload + layout_.fixed);
  for (std::size_t i = 0; i < fixed_entries_.size(); ++i) {
    fixed_out[i] = FixedEntry{fixed_entries_[i].first, 0,
                              fixed_entries_[i].second};
  }

  // Prefix-sum the per-net and per-vertex degree counts straight into the
  // mapped offset sections, then release the count arrays: from here on
  // heap usage is O(vertices) for the scatter cursors only.
  auto prefix = [&](const std::vector<std::uint32_t>& degrees,
                    std::uint64_t section) {
    std::uint64_t sum = 0;
    if (layout_.wide_offsets) {
      auto* off = reinterpret_cast<std::int64_t*>(payload + section);
      off[0] = 0;
      for (std::size_t i = 0; i < degrees.size(); ++i) {
        sum += degrees[i];
        off[i + 1] = static_cast<std::int64_t>(sum);
      }
    } else {
      auto* off = reinterpret_cast<std::uint32_t*>(payload + section);
      off[0] = 0;
      for (std::size_t i = 0; i < degrees.size(); ++i) {
        sum += degrees[i];
        off[i + 1] = static_cast<std::uint32_t>(sum);
      }
    }
  };
  prefix(net_degrees_, layout_.net_offsets);
  prefix(vtx_degrees_, layout_.vtx_offsets);
  std::vector<std::uint32_t>().swap(net_degrees_);
  vtx_fill_ = std::move(vtx_degrees_);
  std::fill(vtx_fill_.begin(), vtx_fill_.end(), 0);
  weighted_degree_.assign(pad_flags_.size(), 0);
}

void FpbinWriter::add_net(std::span<const VertexId> pins, Weight weight) {
  if (phase_ != 1) fail_usage("add_net outside the fill phase");
  if (weight < 0) {
    throw std::invalid_argument("FpbinWriter: negative net weight");
  }
  std::byte* payload = map_ + kFpbinHeaderBytes;
  auto net_span = [&](std::uint64_t e) -> std::pair<std::int64_t, std::int64_t> {
    if (layout_.wide_offsets) {
      auto* off =
          reinterpret_cast<const std::int64_t*>(payload + layout_.net_offsets);
      return {off[e], off[e + 1]};
    }
    auto* off =
        reinterpret_cast<const std::uint32_t*>(payload + layout_.net_offsets);
    return {static_cast<std::int64_t>(off[e]),
            static_cast<std::int64_t>(off[e + 1])};
  };
  if (net_cursor_ >= num_nets_) fail_usage("add_net beyond counted nets");
  const auto [lo, hi] = net_span(net_cursor_);
  if (hi - lo != static_cast<std::int64_t>(pins.size())) {
    fail_usage("add_net pin count differs from count_net");
  }
  check_pins(pins);
  const auto e = net_cursor_++;  // consumed only once the call is valid

  auto* pin_out = reinterpret_cast<VertexId*>(payload + layout_.net_pins);
  std::memcpy(pin_out + lo, pins.data(), pins.size() * sizeof(VertexId));
  pin_cursor_ += pins.size();

  auto* nets_out = reinterpret_cast<NetId*>(payload + layout_.vtx_nets);
  auto vtx_base = [&](VertexId v) -> std::int64_t {
    if (layout_.wide_offsets) {
      auto* off =
          reinterpret_cast<const std::int64_t*>(payload + layout_.vtx_offsets);
      return off[v];
    }
    auto* off =
        reinterpret_cast<const std::uint32_t*>(payload + layout_.vtx_offsets);
    return static_cast<std::int64_t>(off[v]);
  };
  for (VertexId v : pins) {
    const auto idx = static_cast<std::size_t>(v);
    nets_out[vtx_base(v) + vtx_fill_[idx]] = static_cast<NetId>(e);
    ++vtx_fill_[idx];
    weighted_degree_[idx] += weight;
  }
  auto* weight_out = reinterpret_cast<Weight*>(payload + layout_.net_weights);
  weight_out[e] = weight;
}

void FpbinWriter::finish() {
  if (phase_ != 1) fail_usage("finish outside the fill phase");
  if (net_cursor_ != num_nets_) fail_usage("finish before all nets filled");
  if (pin_cursor_ != pins_) fail_usage("fill phase pin total mismatch");
  phase_ = 2;

  Weight max_wdeg = 0;
  for (Weight w : weighted_degree_) max_wdeg = std::max(max_wdeg, w);

  RawHeader h{};
  std::memcpy(h.magic, kMagic, kFpbinMagicBytes);
  h.version = kFpbinVersion;
  h.flags = layout_.wide_offsets ? kFlagWideOffsets : 0;
  h.num_vertices = pad_flags_.size();
  h.num_nets = num_nets_;
  h.num_pins = pins_;
  h.num_resources = static_cast<std::uint32_t>(num_resources_);
  h.num_parts = static_cast<std::uint32_t>(num_parts_);
  h.num_fixed = fixed_entries_.size();
  h.num_pads = num_pads_;
  h.max_weighted_degree = max_wdeg;
  h.payload_bytes = layout_.payload_bytes;
  h.checksum = fnv1a_64(map_ + kFpbinHeaderBytes, layout_.payload_bytes);
  h.reserved = 0;
  std::memcpy(map_, &h, sizeof(RawHeader));

  if (msync(map_, map_bytes_, MS_SYNC) != 0) sys_fail(path_, "msync");
  munmap(map_, map_bytes_);
  map_ = nullptr;
  if (fsync(fd_) != 0) sys_fail(path_, "fsync");
  close(fd_);
  fd_ = -1;
}

void write_fpbin_file(const std::string& path, const Hypergraph& g,
                      const FixedAssignment* fixed, PartitionId num_parts) {
  if (fixed != nullptr) num_parts = fixed->num_parts();
  FpbinWriter w(path, g.num_resources(), num_parts);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    w.add_vertex(g.vertex_weights(v), g.is_pad(v));
  }
  if (fixed != nullptr) {
    for (VertexId v = 0; v < fixed->num_vertices(); ++v) {
      if (fixed->is_restricted(v)) w.add_fixed(v, fixed->allowed_mask(v));
    }
  }
  for (NetId e = 0; e < g.num_nets(); ++e) w.count_net(g.pins(e));
  w.begin_nets();
  for (NetId e = 0; e < g.num_nets(); ++e) w.add_net(g.pins(e), g.net_weight(e));
  w.finish();
}

// ---------------------------------------------------------------------------
// Readers

namespace {

BinaryInstance instance_from(const ParsedFile& file,
                             const std::string& source) {
  const RawHeader& h = file.header;
  const SectionView& s = file.sections;
  const auto nv = static_cast<VertexId>(h.num_vertices);
  const auto ne = static_cast<NetId>(h.num_nets);
  const auto np = static_cast<std::int64_t>(h.num_pins);

  CsrArrays a;
  a.num_vertices = nv;
  a.num_nets = ne;
  a.num_resources = static_cast<int>(h.num_resources);
  a.net_offsets.resize(static_cast<std::size_t>(ne) + 1);
  a.vtx_offsets.resize(static_cast<std::size_t>(nv) + 1);
  if (s.net_off64 != nullptr) {
    std::copy(s.net_off64, s.net_off64 + ne + 1, a.net_offsets.begin());
    std::copy(s.vtx_off64, s.vtx_off64 + nv + 1, a.vtx_offsets.begin());
  } else {
    std::copy(s.net_off32, s.net_off32 + ne + 1, a.net_offsets.begin());
    std::copy(s.vtx_off32, s.vtx_off32 + nv + 1, a.vtx_offsets.begin());
  }
  a.net_pins.assign(s.net_pins, s.net_pins + np);
  a.vtx_nets.assign(s.vtx_nets, s.vtx_nets + np);
  a.net_weights.assign(s.net_weights, s.net_weights + ne);
  a.vertex_weights.assign(
      s.vertex_weights,
      s.vertex_weights + static_cast<std::size_t>(nv) * h.num_resources);
  a.pad_flags.assign(s.pad_flags, s.pad_flags + nv);
  a.total_weights.assign(s.total_weights, s.total_weights + h.num_resources);
  a.num_pads = static_cast<VertexId>(h.num_pads);
  a.max_weighted_degree = h.max_weighted_degree;

  BinaryInstance out;
  out.graph = Hypergraph::from_csr(std::move(a));
  out.num_parts = static_cast<PartitionId>(h.num_parts);
  out.fixed = FixedAssignment(nv, out.num_parts);
  for (std::uint64_t i = 0; i < h.num_fixed; ++i) {
    out.fixed.restrict_to(static_cast<VertexId>(s.fixed[i].vertex),
                          s.fixed[i].mask);
  }
  (void)source;
  return out;
}

}  // namespace

BinaryInstance read_fpbin_bytes(std::string_view bytes,
                                const std::string& source) {
  const ParsedFile file = parse_and_validate(
      reinterpret_cast<const std::byte*>(bytes.data()), bytes.size(), source);
  return instance_from(file, source);
}

BinaryInstance read_fpbin_file(const std::string& path) {
  auto in = open_in(path);
  in.seekg(0, std::ios::end);
  const auto size = static_cast<std::size_t>(in.tellg());
  in.seekg(0, std::ios::beg);
  // int64-backed buffer so section views (8-byte values) are aligned.
  std::vector<std::int64_t> buffer((size + 7) / 8);
  if (size > 0 &&
      !in.read(reinterpret_cast<char*>(buffer.data()),
               static_cast<std::streamsize>(size))) {
    throw util::InputError("short read: " + path);
  }
  const ParsedFile file = parse_and_validate(
      reinterpret_cast<const std::byte*>(buffer.data()), size, path);
  return instance_from(file, path);
}

// ---------------------------------------------------------------------------
// MappedHypergraph

MappedHypergraph::MappedHypergraph(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd == -1) throw util::InputError("cannot open for reading: " + path);
  struct stat st {};
  if (fstat(fd, &st) != 0) {
    close(fd);
    sys_fail(path, "fstat");
  }
  const auto size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    close(fd);
    fail(path, "truncated .fpbin header");
  }
  void* m = mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  close(fd);  // the mapping keeps the file alive
  if (m == MAP_FAILED) sys_fail(path, "mmap");
  map_ = static_cast<const std::byte*>(m);
  map_bytes_ = size;

  ParsedFile file;
  try {
    file = parse_and_validate(map_, map_bytes_, path);
  } catch (...) {
    munmap(const_cast<std::byte*>(map_), map_bytes_);
    map_ = nullptr;
    throw;
  }
  const RawHeader& h = file.header;
  num_vertices_ = static_cast<VertexId>(h.num_vertices);
  num_nets_ = static_cast<NetId>(h.num_nets);
  num_pins_ = static_cast<std::int64_t>(h.num_pins);
  num_resources_ = static_cast<int>(h.num_resources);
  num_parts_ = static_cast<PartitionId>(h.num_parts);
  num_pads_ = static_cast<VertexId>(h.num_pads);
  num_fixed_ = static_cast<std::int64_t>(h.num_fixed);
  max_weighted_degree_ = h.max_weighted_degree;
  net_off32_ = file.sections.net_off32;
  net_off64_ = file.sections.net_off64;
  net_pins_ = file.sections.net_pins;
  vtx_off32_ = file.sections.vtx_off32;
  vtx_off64_ = file.sections.vtx_off64;
  vtx_nets_ = file.sections.vtx_nets;
  net_weights_ = file.sections.net_weights;
  weights_ = file.sections.vertex_weights;
  total_weights_ = file.sections.total_weights;
  pad_flags_ = file.sections.pad_flags;
  fixed_entries_ =
      reinterpret_cast<const std::byte*>(file.sections.fixed);
}

MappedHypergraph::~MappedHypergraph() { reset(); }

void MappedHypergraph::reset() noexcept {
  if (map_ != nullptr) {
    munmap(const_cast<std::byte*>(map_), map_bytes_);
    map_ = nullptr;
    map_bytes_ = 0;
  }
}

MappedHypergraph::MappedHypergraph(MappedHypergraph&& other) noexcept {
  *this = std::move(other);
}

MappedHypergraph& MappedHypergraph::operator=(
    MappedHypergraph&& other) noexcept {
  if (this == &other) return *this;
  reset();
  std::memcpy(static_cast<void*>(this), &other, sizeof(MappedHypergraph));
  other.map_ = nullptr;
  other.map_bytes_ = 0;
  return *this;
}

FixedAssignment MappedHypergraph::fixed_assignment() const {
  FixedAssignment fixed(num_vertices_, num_parts_);
  const auto* entries = reinterpret_cast<const FixedEntry*>(fixed_entries_);
  for (std::int64_t i = 0; i < num_fixed_; ++i) {
    fixed.restrict_to(static_cast<VertexId>(entries[i].vertex),
                      entries[i].mask);
  }
  return fixed;
}

Hypergraph MappedHypergraph::to_hypergraph() const {
  CsrArrays a;
  a.num_vertices = num_vertices_;
  a.num_nets = num_nets_;
  a.num_resources = num_resources_;
  a.net_offsets.resize(static_cast<std::size_t>(num_nets_) + 1);
  a.vtx_offsets.resize(static_cast<std::size_t>(num_vertices_) + 1);
  for (std::int64_t i = 0; i <= num_nets_; ++i) {
    a.net_offsets[static_cast<std::size_t>(i)] = net_offset(i);
  }
  for (std::int64_t i = 0; i <= num_vertices_; ++i) {
    a.vtx_offsets[static_cast<std::size_t>(i)] = vtx_offset(i);
  }
  a.net_pins.assign(net_pins_, net_pins_ + num_pins_);
  a.vtx_nets.assign(vtx_nets_, vtx_nets_ + num_pins_);
  a.net_weights.assign(net_weights_, net_weights_ + num_nets_);
  a.vertex_weights.assign(
      weights_, weights_ + static_cast<std::size_t>(num_vertices_) *
                               static_cast<std::size_t>(num_resources_));
  a.pad_flags.assign(pad_flags_, pad_flags_ + num_vertices_);
  a.total_weights.assign(total_weights_, total_weights_ + num_resources_);
  a.num_pads = num_pads_;
  a.max_weighted_degree = max_weighted_degree_;
  return Hypergraph::from_csr(std::move(a));
}

// ---------------------------------------------------------------------------
// Canonical text identity

std::string fpbin_canonical_text(const BinaryInstance& instance) {
  const Hypergraph& g = instance.graph;
  std::ostringstream out;
  write_hmetis(out, g);
  if (instance.num_parts != 2) {
    out << "fpbin-parts " << instance.num_parts << '\n';
  }
  if (g.num_pads() > 0) {
    out << "fpbin-pads";
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (g.is_pad(v)) out << ' ' << (v + 1);
    }
    out << '\n';
  }
  if (g.num_resources() > 1) {
    out << "fpbin-resources " << g.num_resources() << '\n';
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      for (int r = 1; r < g.num_resources(); ++r) {
        out << (r > 1 ? " " : "") << g.vertex_weight(v, r);
      }
      out << '\n';
    }
  }
  for (VertexId v = 0; v < instance.fixed.num_vertices(); ++v) {
    if (instance.fixed.is_restricted(v)) {
      out << "fpbin-fix " << (v + 1) << ' ' << instance.fixed.allowed_mask(v)
          << '\n';
    }
  }
  return out.str();
}

}  // namespace fixedpart::hg
