#include "tofu/utofu.h"

#include <stdexcept>
#include <utility>

namespace lmp::tofu {

RegisteredBuffer::RegisteredBuffer(Network& net, int proc, std::size_t bytes)
    : net_(&net), proc_(proc), storage_(bytes) {
  if (bytes == 0) throw std::invalid_argument("zero-size registered buffer");
  stadd_ = net_->reg_mem(proc_, storage_.data(), storage_.size());
}

RegisteredBuffer::~RegisteredBuffer() { release(); }

RegisteredBuffer::RegisteredBuffer(RegisteredBuffer&& o) noexcept
    : net_(std::exchange(o.net_, nullptr)),
      proc_(o.proc_),
      storage_(std::move(o.storage_)),
      stadd_(std::exchange(o.stadd_, 0)) {}

RegisteredBuffer& RegisteredBuffer::operator=(RegisteredBuffer&& o) noexcept {
  if (this != &o) {
    release();
    net_ = std::exchange(o.net_, nullptr);
    proc_ = o.proc_;
    storage_ = std::move(o.storage_);
    stadd_ = std::exchange(o.stadd_, 0);
  }
  return *this;
}

void RegisteredBuffer::release() {
  if (net_ != nullptr && stadd_ != 0) {
    net_->dereg_mem(proc_, stadd_);
    stadd_ = 0;
    net_ = nullptr;
  }
}

VcqId UtofuContext::create_vcq(int tni, int cq) {
  const VcqId id = net_->create_vcq(proc_, tni, cq);
  owned_.push_back(id);
  return id;
}

UtofuContext::~UtofuContext() {
  for (const VcqId id : owned_) {
    try {
      net_->free_vcq(id);
    } catch (...) {
      // Destructor must not throw; a double-free here indicates a test
      // tearing down the network first, which is harmless.
    }
  }
}

}  // namespace lmp::tofu
