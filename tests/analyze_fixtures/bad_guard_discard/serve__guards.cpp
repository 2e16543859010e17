// The guard factory: returns an RAII guard by value. Returning one is
// fine; the bug is the caller in core__caller.cpp that drops it on the
// floor.
namespace rahooi {
namespace comm {
struct CollectiveScope {
  explicit CollectiveScope(int token);
};
}  // namespace comm

comm::CollectiveScope hold_collective(int token) {
  return comm::CollectiveScope(token);
}

}  // namespace rahooi
