// Seeded fixture: discarding the returned RAII guard collapses the guarded
// region to a single statement. Exactly one guard-discard finding fires at
// the discarded call below.
namespace rahooi {
namespace comm { struct CollectiveScope; }

comm::CollectiveScope hold_collective(int token);

void enter_epoch(int token) {
  hold_collective(token);
}

}  // namespace rahooi
