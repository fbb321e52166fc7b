// A run-time-sized array on the stack up to a compile-time capacity and on
// the heap beyond it: per-call scratch for hot paths (the LQN solve's tables,
// per-host memory sums), so the sizes the paper's clusters use allocate
// nothing.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <span>
#include <vector>

namespace mistral {

template <typename T, std::size_t N>
class inline_buffer {
public:
    // n copies of `value`.
    inline_buffer(std::size_t n, const T& value) : size_(n) {
        if (n > N) {
            heap_.assign(n, value);
            data_ = heap_.data();
        } else {
            std::fill_n(local_.data(), n, value);
            data_ = local_.data();
        }
    }
    // data_ points into the object itself.
    inline_buffer(const inline_buffer&) = delete;
    inline_buffer& operator=(const inline_buffer&) = delete;

    T& operator[](std::size_t i) { return data_[i]; }
    const T& operator[](std::size_t i) const { return data_[i]; }
    [[nodiscard]] std::span<const T> span() const { return {data_, size_}; }

private:
    std::array<T, N> local_;
    std::vector<T> heap_;
    T* data_ = nullptr;
    std::size_t size_ = 0;
};

}  // namespace mistral
