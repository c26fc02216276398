//! Empty. This package was an offline stand-in for `tokio`; the server
//! that used it now runs one std thread per connection on blocking std
//! sockets. The package and `crates/server`'s dependency line on it stay
//! only so `benchmark/Cargo.lock` remains valid; both go with the next
//! benchmark-scoped refresh (ROADMAP 8(h)).
