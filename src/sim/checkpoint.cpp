#include "sim/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "comm/msg_codec.h"
#include "sim/integrity.h"
#include "util/durable_file.h"

namespace lmp::sim {

namespace {

// Frame types (comm/msg_codec.h frames): a private range disjoint from
// the serve protocol's 0x01xx and the job journal's 0x4A0x, so either
// stream handed to read_checkpoint is refused as "not a checkpoint",
// and a checkpoint handed to theirs as an unknown type. A file is the
// header, meta, one atoms frame per rank in rank order, thermo, then end
// of file; the version in the header, not type skipping, is the
// compatibility mechanism.
constexpr std::uint16_t kFrameHeader = 0x4B00;
constexpr std::uint16_t kFrameMeta = 0x4B01;
constexpr std::uint16_t kFrameAtoms = 0x4B02;
constexpr std::uint16_t kFrameThermo = 0x4B03;

// Encoded sizes that bound a declared count by the bytes behind it: one
// atom (tag + pos + vel), rebuild position, or thermo sample (step + 4).
constexpr std::size_t kAtomBytes = sizeof(std::int64_t) + 6 * sizeof(double);
constexpr std::size_t kVec3Bytes = 3 * sizeof(double);
constexpr std::size_t kSampleBytes = sizeof(std::int32_t) + 4 * sizeof(double);

void put_vec3(comm::WireWriter& w, const util::Vec3& v) {
  w.f64(v.x);
  w.f64(v.y);
  w.f64(v.z);
}

util::Vec3 get_vec3(comm::WireReader& r) {
  util::Vec3 v;
  v.x = r.f64();
  v.y = r.f64();
  v.z = r.f64();
  return v;
}

void put_meta(comm::WireWriter& w, const CheckpointState& st) {
  w.i32(st.step);
  w.i32(st.checkpoint_every);
  w.u64(st.seed);
  w.i64(st.natoms);
  w.i32(st.cells.x);
  w.i32(st.cells.y);
  w.i32(st.cells.z);
  w.i32(st.rank_grid.x);
  w.i32(st.rank_grid.y);
  w.i32(st.rank_grid.z);
  put_vec3(w, st.box.lo);
  put_vec3(w, st.box.hi);
  w.i32(static_cast<std::int32_t>(st.rank_atoms.size()));
  w.str(st.comm_variant);
}

void put_atoms(comm::WireWriter& w, const std::vector<AtomState>& atoms,
               const std::vector<util::Vec3>& rebuild_pos) {
  w.i64(static_cast<std::int64_t>(atoms.size()));
  for (const AtomState& a : atoms) {
    w.i64(a.tag);
    put_vec3(w, a.pos);
    put_vec3(w, a.vel);
  }
  w.i64(static_cast<std::int64_t>(rebuild_pos.size()));
  for (const util::Vec3& p : rebuild_pos) put_vec3(w, p);
}

void put_thermo(comm::WireWriter& w, const std::vector<ThermoSample>& thermo) {
  w.i64(static_cast<std::int64_t>(thermo.size()));
  for (const ThermoSample& s : thermo) {
    w.i32(s.step);
    w.f64(s.state.temperature);
    w.f64(s.state.pressure);
    w.f64(s.state.kinetic);
    w.f64(s.state.potential);
  }
}

void put_frame(std::vector<char>& file, std::uint16_t type,
               const comm::WireWriter& w) {
  comm::append_frame(file, type, w.bytes().data(), w.bytes().size());
}

}  // namespace

std::uint64_t checkpoint_content_hash(const CheckpointState& st) {
  // Chain per-rank atom sections so both the bytes and their section
  // boundaries are covered. AtomState is padding-free (int64 + 6
  // doubles), so hashing the array bytes hashes exactly the physics.
  static_assert(sizeof(AtomState) == sizeof(std::int64_t) + 6 * sizeof(double),
                "AtomState must be padding-free for byte hashing");
  std::uint64_t h = hash64(&st.step, sizeof st.step, 0x1f1a6ULL);
  for (const auto& atoms : st.rank_atoms) {
    const std::uint64_t n = atoms.size();
    h = hash64(&n, sizeof n, h);
    h = hash64(atoms.data(), atoms.size() * sizeof(AtomState), h);
  }
  for (const auto& key : st.rank_rebuild_pos) {
    const std::uint64_t n = key.size();
    h = hash64(key.data(), n * sizeof(util::Vec3), hash64(&n, sizeof n, h));
  }
  for (const ThermoSample& s : st.thermo) {
    h = hash64(&s.step, sizeof s.step, h);
    h = hash64(&s.state, sizeof s.state, h);
  }
  return h;
}

int prune_checkpoints(const std::string& prefix, int keep) {
  if (keep <= 0) return 0;
  namespace fs = std::filesystem;
  std::error_code ec;
  const fs::path pfx(prefix);
  fs::path dir = pfx.parent_path();
  if (dir.empty()) dir = ".";
  const std::string base = pfx.filename().string() + ".";

  // Collect `<prefix>.<digits>` files; anything else (including the
  // atomic-write `.tmp` staging names) is not ours to delete.
  std::vector<std::pair<long long, fs::path>> found;
  for (fs::directory_iterator it(dir, ec), end; !ec && it != end;
       it.increment(ec)) {
    const std::string name = it->path().filename().string();
    if (name.size() <= base.size() || name.compare(0, base.size(), base) != 0) {
      continue;
    }
    const std::string tail = name.substr(base.size());
    if (tail.find_first_not_of("0123456789") != std::string::npos) continue;
    errno = 0;
    char* endp = nullptr;
    const long long step = std::strtoll(tail.c_str(), &endp, 10);
    if (errno != 0 || endp == tail.c_str() || *endp != '\0') continue;
    found.emplace_back(step, it->path());
  }
  if (static_cast<int>(found.size()) <= keep) return 0;

  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  int removed = 0;
  for (std::size_t i = static_cast<std::size_t>(keep); i < found.size(); ++i) {
    std::error_code rm_ec;
    if (fs::remove(found[i].second, rm_ec) && !rm_ec) ++removed;
  }
  return removed;
}

void write_checkpoint(const std::string& path, const CheckpointState& st) {
  std::vector<char> file;
  {
    comm::WireWriter w;
    w.u32(kCheckpointVersion);
    put_frame(file, kFrameHeader, w);
  }
  {
    comm::WireWriter w;
    put_meta(w, st);
    put_frame(file, kFrameMeta, w);
  }
  for (std::size_t rank = 0; rank < st.rank_atoms.size(); ++rank) {
    comm::WireWriter w;
    put_atoms(w, st.rank_atoms[rank],
              rank < st.rank_rebuild_pos.size() ? st.rank_rebuild_pos[rank]
                                                : std::vector<util::Vec3>{});
    put_frame(file, kFrameAtoms, w);
  }
  {
    comm::WireWriter w;
    put_thermo(w, st.thermo);
    put_frame(file, kFrameThermo, w);
  }

  // Atomic, durable publish: tmp + fsync + rename + parent-dir fsync,
  // so a checkpoint that the journal (or a restart) points at survives
  // power loss — never a half-written or unlinked file under `path`.
  util::write_file_durable(path, file.data(), file.size());
}

CheckpointState read_checkpoint(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("checkpoint: cannot open " + path);
  const std::vector<char> file((std::istreambuf_iterator<char>(is)),
                               std::istreambuf_iterator<char>());

  std::size_t off = 0;
  int index = 0;
  const auto fail = [&](const std::string& why) {
    return std::runtime_error("checkpoint: " + why + " at frame " +
                              std::to_string(index) + " of " + path);
  };
  // The payload of the next frame, which must be of `type`.
  const auto next = [&](std::uint16_t type, const char* what) {
    // At end of file there is no frame to decode (and an empty file has
    // no buffer to hand decode_frame): both are a truncated checkpoint.
    const comm::FrameView f =
        off == file.size()
            ? comm::FrameView{}
            : comm::decode_frame(file.data() + off, file.size() - off);
    switch (f.status) {
      case comm::FrameStatus::kOk: break;
      case comm::FrameStatus::kNeedMore: throw fail("truncated");
      case comm::FrameStatus::kBadCrc: throw fail("CRC mismatch");
      case comm::FrameStatus::kOversized: throw fail("oversized frame");
      case comm::FrameStatus::kBadMagic: throw fail("not a checkpoint");
    }
    if (f.type != type) {
      const bool ours = f.type >= kFrameHeader && f.type <= kFrameThermo;
      throw fail(ours ? std::string("expected the ") + what + " frame"
                      : std::string("not a checkpoint"));
    }
    comm::WireReader r(f.payload, f.payload_len,
                       std::string("checkpoint ") + what + " frame " +
                           std::to_string(index) + " of " + path);
    off += f.consumed;
    ++index;
    return r;
  };

  {
    comm::WireReader r = next(kFrameHeader, "header");
    const std::uint32_t version = r.u32();
    r.expect_done();
    if (version != kCheckpointVersion) {
      throw std::runtime_error("checkpoint: unsupported version " +
                               std::to_string(version) + " in " + path +
                               " (this build reads version " +
                               std::to_string(kCheckpointVersion) + ")");
    }
  }

  CheckpointState st;
  std::int32_t nranks = 0;
  {
    comm::WireReader r = next(kFrameMeta, "meta");
    st.step = r.i32();
    st.checkpoint_every = r.i32();
    st.seed = r.u64();
    st.natoms = static_cast<long>(r.i64());
    st.cells.x = r.i32();
    st.cells.y = r.i32();
    st.cells.z = r.i32();
    st.rank_grid.x = r.i32();
    st.rank_grid.y = r.i32();
    st.rank_grid.z = r.i32();
    st.box.lo = get_vec3(r);
    st.box.hi = get_vec3(r);
    nranks = r.i32();
    st.comm_variant = r.str();
    r.expect_done();
  }
  // One atoms frame per rank: the frames, not the declared count, size
  // rank_atoms, so a forged count runs into the thermo frame or the end
  // of the file instead of into an allocation.
  for (std::int32_t rank = 0; rank < nranks; ++rank) {
    comm::WireReader r = next(kFrameAtoms, "atoms");
    std::vector<AtomState>& atoms = st.rank_atoms.emplace_back();
    const std::int64_t n = r.i64();
    atoms.resize(r.count(n, kAtomBytes));
    for (AtomState& a : atoms) {
      a.tag = r.i64();
      a.pos = get_vec3(r);
      a.vel = get_vec3(r);
    }
    std::vector<util::Vec3>& key = st.rank_rebuild_pos.emplace_back();
    const std::int64_t nkey = r.i64();
    if (nkey != 0 && nkey != n) {
      throw std::runtime_error("checkpoint: rank " + std::to_string(rank) +
                               "'s rebuild position count mismatch in " + path);
    }
    key.resize(r.count(nkey, kVec3Bytes));
    for (util::Vec3& p : key) p = get_vec3(r);
    r.expect_done();
  }
  {
    comm::WireReader r = next(kFrameThermo, "thermo");
    const std::int64_t n = r.i64();
    st.thermo.resize(r.count(n, kSampleBytes));
    for (ThermoSample& s : st.thermo) {
      s.step = r.i32();
      s.state.temperature = r.f64();
      s.state.pressure = r.f64();
      s.state.kinetic = r.f64();
      s.state.potential = r.f64();
    }
    r.expect_done();
  }
  if (off != file.size()) throw fail("trailing bytes after the thermo frame");
  return st;
}

}  // namespace lmp::sim
