#include "md/atoms.h"

#include <algorithm>
#include <stdexcept>

namespace lmp::md {

void Atoms::reserve_capacity(int max_atoms) {
  if (max_atoms < capacity_) return;
  capacity_ = max_atoms;
  x_.resize(static_cast<std::size_t>(3) * max_atoms);
  v_.resize(static_cast<std::size_t>(3) * max_atoms);
  f_.resize(static_cast<std::size_t>(3) * max_atoms);
  tag_.resize(static_cast<std::size_t>(max_atoms));
}

void Atoms::check_capacity(int needed) const {
  if (needed > capacity_) {
    throw std::length_error(
        "Atoms capacity exceeded — reserve_capacity was sized too small "
        "(the pre-registered arrays must never reallocate mid-run)");
  }
}

void Atoms::add_local(const Vec3& pos, const Vec3& vel, std::int64_t tag) {
  if (nghost_ != 0) {
    throw std::logic_error("cannot add locals while ghosts exist");
  }
  check_capacity(nlocal_ + 1);
  const int i = nlocal_++;
  set_pos(i, pos);
  set_vel(i, vel);
  tag_[static_cast<std::size_t>(i)] = tag;
}

void Atoms::remove_locals(std::span<const int> sorted_indices) {
  if (nghost_ != 0) {
    throw std::logic_error("clear ghosts before removing locals");
  }
  if (sorted_indices.empty()) return;
  std::size_t k = 0;  // next victim
  int dst = sorted_indices[0];
  for (int src = dst; src < nlocal_; ++src) {
    if (k < sorted_indices.size() && sorted_indices[k] == src) {
      ++k;
      continue;
    }
    if (dst != src) {
      for (int d = 0; d < 3; ++d) {
        x_[3 * dst + d] = x_[3 * src + d];
        v_[3 * dst + d] = v_[3 * src + d];
        f_[3 * dst + d] = f_[3 * src + d];
      }
      tag_[static_cast<std::size_t>(dst)] = tag_[static_cast<std::size_t>(src)];
    }
    ++dst;
  }
  if (k != sorted_indices.size()) {
    throw std::out_of_range("remove_locals: index beyond nlocal or unsorted");
  }
  nlocal_ = dst;
}

void Atoms::clear_ghosts() { nghost_ = 0; }

int Atoms::add_ghost(const Vec3& pos, std::int64_t tag) {
  check_capacity(ntotal() + 1);
  const int i = nlocal_ + nghost_++;
  set_pos(i, pos);
  tag_[static_cast<std::size_t>(i)] = tag;
  return i;
}

void Atoms::zero_forces() {
  std::fill(f_.begin(), f_.begin() + static_cast<std::ptrdiff_t>(3) * ntotal(), 0.0);
}

Vec3 Atoms::net_force() const {
  Vec3 s;
  for (int i = 0; i < nlocal_; ++i) {
    s.x += f_[3 * i];
    s.y += f_[3 * i + 1];
    s.z += f_[3 * i + 2];
  }
  return s;
}

}  // namespace lmp::md
