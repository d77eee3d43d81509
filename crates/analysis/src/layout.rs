//! Device-to-group layouts for the RAID comparators.

/// Partition of a device array into equal parity groups ("drawers").
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct GroupLayout {
    groups: usize,
    group_size: usize,
}

impl GroupLayout {
    /// `groups` drawers of `group_size` devices each.
    ///
    /// # Panics
    /// Panics on zero groups or zero-size groups.
    pub(crate) fn new(groups: usize, group_size: usize) -> Self {
        assert!(groups > 0 && group_size > 0, "degenerate layout");
        Self { groups, group_size }
    }

    /// The paper's configuration: 8 drawers with 12 disks per drawer.
    pub(crate) fn paper_8x12() -> Self {
        Self::new(8, 12)
    }

    /// Number of groups.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Devices per group.
    pub(crate) fn group_size(&self) -> usize {
        self.group_size
    }

    /// Total devices.
    pub(crate) fn total_devices(&self) -> usize {
        self.groups * self.group_size
    }

    /// Which group a device belongs to.
    pub(crate) fn group_of(&self, device: usize) -> usize {
        assert!(
            device < self.total_devices(),
            "device {device} out of range"
        );
        device / self.group_size
    }

    /// Counts offline devices per group for an erasure pattern.
    pub(crate) fn losses_per_group(&self, offline: &[usize]) -> Vec<usize> {
        let mut counts = vec![0usize; self.groups];
        for &d in offline {
            counts[self.group_of(d)] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_layout_shape() {
        let l = GroupLayout::paper_8x12();
        assert_eq!(l.total_devices(), 96);
        assert_eq!(l.group_of(0), 0);
        assert_eq!(l.group_of(11), 0);
        assert_eq!(l.group_of(12), 1);
        assert_eq!(l.group_of(95), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn group_of_checks_bounds() {
        GroupLayout::paper_8x12().group_of(96);
    }

    #[test]
    fn losses_per_group_counts() {
        let l = GroupLayout::new(3, 4);
        let counts = l.losses_per_group(&[0, 1, 4, 11]);
        assert_eq!(counts, vec![2, 1, 1]);
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn rejects_zero_groups() {
        GroupLayout::new(0, 4);
    }
}
