#pragma once

// RDMASEM_ASAN is 1 when AddressSanitizer instruments this translation
// unit (gcc defines __SANITIZE_ADDRESS__, clang has
// __has_feature(address_sanitizer)), 0 otherwise. Pools and custom
// backings pass straight through to the global allocator under it, so
// the sanitizer's redzones and lifetime tracking cover every block.
#if defined(__SANITIZE_ADDRESS__)
#define RDMASEM_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RDMASEM_ASAN 1
#endif
#endif
#ifndef RDMASEM_ASAN
#define RDMASEM_ASAN 0
#endif
