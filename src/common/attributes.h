// Layout attributes that the C++17 build uses ahead of the standard.
//
// UDR_NO_UNIQUE_ADDRESS is C++20's [[no_unique_address]]. On a member that
// is not empty it lets the next members of the enclosing class sit in the
// member's tail padding: storage::Attribute puts its writer id after the
// Value variant's one-byte index instead of after its 24 bytes. GCC accepts
// the attribute in C++17 mode without a diagnostic. Clang accepts it too but
// warns that it is a C++20 extension, which the ci.sh clang stage's -Werror
// would turn into an error, so under clang the macro silences that warning
// for the attribute alone.

#ifndef UDR_COMMON_ATTRIBUTES_H_
#define UDR_COMMON_ATTRIBUTES_H_

#if defined(__clang__)
#define UDR_NO_UNIQUE_ADDRESS                                              \
  _Pragma("clang diagnostic push")                                         \
  _Pragma("clang diagnostic ignored \"-Wunknown-warning-option\"")         \
  _Pragma("clang diagnostic ignored \"-Wc++20-attribute-extensions\"")     \
  _Pragma("clang diagnostic ignored \"-Wc++20-extensions\"")               \
  [[no_unique_address]] _Pragma("clang diagnostic pop")
#else
#define UDR_NO_UNIQUE_ADDRESS [[no_unique_address]]
#endif

#endif  // UDR_COMMON_ATTRIBUTES_H_
