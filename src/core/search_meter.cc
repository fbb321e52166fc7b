#include "core/search_meter.h"

#include "common/check.h"

namespace mistral::core {

wall_clock_meter::wall_clock_meter(watts search_power) : power_(search_power) {
    MISTRAL_CHECK(search_power >= 0.0);
    start_ = std::chrono::steady_clock::now();
}

void wall_clock_meter::begin() { start_ = std::chrono::steady_clock::now(); }

seconds wall_clock_meter::elapsed() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
}

model_clock_meter::model_clock_meter(seconds per_expansion, watts search_power)
    : per_expansion_(per_expansion), power_(search_power) {
    MISTRAL_CHECK(per_expansion >= 0.0);
    MISTRAL_CHECK(search_power >= 0.0);
}

}  // namespace mistral::core
