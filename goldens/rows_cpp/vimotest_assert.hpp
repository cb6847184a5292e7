#pragma once

#include <iostream>
#include <optional>
#include <sstream>
#include <string>

namespace vimotest {

inline int& failureCount() {
    static int count = 0;
    return count;
}

template <typename T>
inline std::string repr(const T& value) {
    std::ostringstream out;
    out << value;
    return out.str();
}

inline std::string repr(bool value) {
    return value ? "true" : "false";
}

template <typename T>
inline std::string repr(const std::optional<T>& value) {
    return value.has_value() ? repr(*value) : std::string("none");
}

template <typename E, typename A>
inline void assertEqual(const E& expected, const A& actual, const char* message,
                        const char* file, int line) {
    if (!(expected == actual)) {
        ++failureCount();
        std::cerr << file << ":" << line << ": FAIL " << message
                  << ": expected " << repr(expected)
                  << ", actual " << repr(actual) << "\n";
    }
}

inline int summary() {
    if (failureCount() == 0) {
        std::cout << "all assertions passed\n";
        return 0;
    }
    std::cerr << failureCount() << " assertion(s) failed\n";
    return 1;
}

}  // namespace vimotest

#define VT_ASSERT_EQ(expected, actual, message) \
    ::vimotest::assertEqual((expected), (actual), (message), __FILE__, __LINE__)
