"""Task model, task-management queue, and virtual-time execution (§2.2)."""
