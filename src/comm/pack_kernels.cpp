#include "comm/pack_kernels.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "comm/msg_codec.h"

namespace lmp::comm {

namespace {

/// THE buffer bound check: every pack kernel calls it before writing.
void check_room(const char* format, std::size_t doubles, std::span<double> out) {
  if (doubles > out.size()) {
    throw std::length_error(std::string(format) + " payload of " +
                            std::to_string(doubles) + " doubles exceeds the " +
                            std::to_string(out.size()) +
                            "-double send buffer");
  }
}

/// THE shifted-position copy: every packed position in the comm layer
/// goes through here, so the periodic image arithmetic is bitwise
/// identical across all variants (the cross-variant golden test depends
/// on this). Returns the advanced output cursor.
inline double* put_shifted(const double* x, int i, const util::Vec3& shift,
                           double* out) {
  out[0] = x[3 * i] + shift.x;
  out[1] = x[3 * i + 1] + shift.y;
  out[2] = x[3 * i + 2] + shift.z;
  return out + 3;
}

}  // namespace

// --- pack ---------------------------------------------------------------

std::size_t pack_border(const md::Atoms& atoms, std::span<const int> list,
                        const util::Vec3& shift, std::span<double> out) {
  check_room("border", list.size() * kBorderDoubles, out);
  const double* x = atoms.x();
  double* w = out.data();
  for (const int i : list) {
    w = put_shifted(x, i, shift, w);
    *w++ = tag_to_double(atoms.tag(i));
  }
  return static_cast<std::size_t>(w - out.data());
}

std::size_t pack_positions(const double* x, std::span<const int> list,
                           const util::Vec3& shift, std::span<double> out) {
  check_room("forward", list.size() * kPositionDoubles, out);
  double* w = out.data();
  for (const int i : list) w = put_shifted(x, i, shift, w);
  return static_cast<std::size_t>(w - out.data());
}

std::size_t pack_scalar(const double* per_atom, std::span<const int> list,
                        std::span<double> out) {
  check_room("scalar", list.size(), out);
  double* w = out.data();
  for (const int i : list) *w++ = per_atom[i];
  return static_cast<std::size_t>(w - out.data());
}

std::size_t pack_exchange(const md::Atoms& atoms, std::span<const int> list,
                          const util::Vec3& shift, std::span<double> out) {
  check_room("exchange", list.size() * kExchangeDoubles, out);
  const double* x = atoms.x();
  const double* v = atoms.v();
  double* w = out.data();
  for (const int i : list) {
    w = put_shifted(x, i, shift, w);
    *w++ = v[3 * i];
    *w++ = v[3 * i + 1];
    *w++ = v[3 * i + 2];
    *w++ = tag_to_double(atoms.tag(i));
  }
  return static_cast<std::size_t>(w - out.data());
}

std::size_t pack_block(std::span<const double> block, std::span<double> out) {
  check_room("ghost-block", block.size(), out);
  std::copy(block.begin(), block.end(), out.begin());
  return block.size();
}

// --- unpack -------------------------------------------------------------

int unpack_border(md::Atoms& atoms, std::span<const double> in) {
  const int n = static_cast<int>(in.size() / kBorderDoubles);
  for (int k = 0; k < n; ++k) {
    const double* r = in.data() + static_cast<std::size_t>(k) * kBorderDoubles;
    atoms.add_ghost({r[0], r[1], r[2]}, double_to_tag(r[3]));
  }
  return n;
}

void unpack_positions(double* x, int ghost_start, std::span<const double> in) {
  std::copy(in.begin(), in.end(), x + 3 * ghost_start);
}

void unpack_scalar(double* per_atom, int ghost_start,
                   std::span<const double> in) {
  std::copy(in.begin(), in.end(), per_atom + ghost_start);
}

int unpack_exchange(md::Atoms& atoms, std::span<const double> in) {
  const int n = static_cast<int>(in.size() / kExchangeDoubles);
  for (int k = 0; k < n; ++k) {
    const double* r =
        in.data() + static_cast<std::size_t>(k) * kExchangeDoubles;
    atoms.add_local({r[0], r[1], r[2]}, {r[3], r[4], r[5]},
                    double_to_tag(r[6]));
  }
  return n;
}

int unpack_exchange_slab(md::Atoms& atoms, std::span<const double> in,
                         int axis, double lo, double hi) {
  const int n = static_cast<int>(in.size() / kExchangeDoubles);
  int kept = 0;
  for (int k = 0; k < n; ++k) {
    const double* r =
        in.data() + static_cast<std::size_t>(k) * kExchangeDoubles;
    const double v = r[axis];
    if (v < lo || v >= hi) continue;  // not mine; the other copy lands it
    atoms.add_local({r[0], r[1], r[2]}, {r[3], r[4], r[5]},
                    double_to_tag(r[6]));
    ++kept;
  }
  return kept;
}

// --- reverse accumulation -----------------------------------------------

void add_forces(double* f, std::span<const int> list,
                std::span<const double> in) {
  if (in.size() != list.size() * kPositionDoubles) {
    throw std::logic_error("reverse payload does not match send list");
  }
  for (std::size_t k = 0; k < list.size(); ++k) {
    const int i = list[k];
    f[3 * i] += in[3 * k];
    f[3 * i + 1] += in[3 * k + 1];
    f[3 * i + 2] += in[3 * k + 2];
  }
}

void add_scalar(double* per_atom, std::span<const int> list,
                std::span<const double> in) {
  if (in.size() != list.size()) {
    throw std::logic_error("scalar reverse count mismatch");
  }
  for (std::size_t k = 0; k < list.size(); ++k) {
    per_atom[list[k]] += in[k];
  }
}

}  // namespace lmp::comm
