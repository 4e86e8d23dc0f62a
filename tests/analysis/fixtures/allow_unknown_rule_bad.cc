// Fixture: lint:allow sites naming no registered rule. Each is a typo
// that suppresses nothing, so each must be reported, not accepted.

// lint:allow-file(clock-domian): typo of clock-domain

int
answer()
{
    return 42; // lint:allow(wal-clock): typo of wall-clock
}
