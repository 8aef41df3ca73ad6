package daemon

import "time"

// SetMaxBudget lowers the budget cap for one test and returns the restore,
// so a capped budget can run out in milliseconds instead of MaxBudget.
func SetMaxBudget(d time.Duration) (restore func()) {
	old := maxBudget
	maxBudget = d
	return func() { maxBudget = old }
}
