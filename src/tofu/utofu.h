#pragma once

#include <cstddef>
#include <vector>

#include "tofu/network.h"

namespace lmp::tofu {

/// RAII registered buffer: owns the storage *and* its STADD registration.
///
/// The paper's pre-registration optimization (Sec. 3.4) sizes these once
/// in the setup stage from the theoretical ghost-atom upper bound so the
/// whole simulation runs with a single registration syscall per buffer.
class RegisteredBuffer {
 public:
  RegisteredBuffer() = default;
  RegisteredBuffer(Network& net, int proc, std::size_t bytes);
  ~RegisteredBuffer();

  RegisteredBuffer(RegisteredBuffer&& o) noexcept;
  RegisteredBuffer& operator=(RegisteredBuffer&& o) noexcept;
  RegisteredBuffer(const RegisteredBuffer&) = delete;
  RegisteredBuffer& operator=(const RegisteredBuffer&) = delete;

  std::byte* data() { return storage_.data(); }
  const std::byte* data() const { return storage_.data(); }
  std::size_t size() const { return storage_.size(); }
  Stadd stadd() const { return stadd_; }
  bool valid() const { return net_ != nullptr; }

  double* as_doubles() { return reinterpret_cast<double*>(storage_.data()); }
  const double* as_doubles() const {
    return reinterpret_cast<const double*>(storage_.data());
  }

 private:
  void release();

  Network* net_ = nullptr;
  int proc_ = -1;
  std::vector<std::byte> storage_;
  Stadd stadd_ = 0;
};

/// Per-rank uTofu context: the handle through which the optimized comm
/// layer talks to the fabric. Mirrors the real uTofu usage pattern —
/// create VCQs on chosen (TNI, CQ) pairs, register memory, issue
/// one-sided puts, poll completions.
class UtofuContext {
 public:
  UtofuContext(Network& net, int proc) : net_(&net), proc_(proc) {}

  Network& network() { return *net_; }
  int proc() const { return proc_; }

  /// Create and remember a VCQ on (tni, cq); freed on destruction.
  VcqId create_vcq(int tni, int cq);

  RegisteredBuffer make_buffer(std::size_t bytes) {
    return RegisteredBuffer(*net_, proc_, bytes);
  }

  ~UtofuContext();
  UtofuContext(const UtofuContext&) = delete;
  UtofuContext& operator=(const UtofuContext&) = delete;

 private:
  Network* net_;
  int proc_;
  std::vector<VcqId> owned_;
};

}  // namespace lmp::tofu
