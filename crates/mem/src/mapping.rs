//! DRAM address mappings (Table 4 of the paper).
//!
//! The baseline and HMC CPU channels use **Row:Rank:Bank:Column:Channel**
//! ("page-striped": consecutive addresses fill a row buffer before moving
//! on, maximizing locality). HMC's IP channels use
//! **Row:Column:Rank:Bank:Channel** ("cache-line-striped": consecutive
//! lines hit different banks, maximizing parallelism for large sequential
//! buffers). Field names read most-significant → least-significant.

use emerald_common::types::Addr;

/// Physical DRAM coordinates of an address.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct DramLocation {
    /// Channel index.
    pub channel: usize,
    /// Rank index within the channel.
    pub rank: usize,
    /// Bank index within the rank.
    pub bank: usize,
    /// Row index within the bank.
    pub row: u64,
    /// Column (line) index within the row.
    pub col: u64,
}

/// Bit-field ordering of the mapping, most-significant first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MappingScheme {
    /// `Row:Rank:Bank:Column:Channel` — the paper's baseline / CPU-channel
    /// mapping (locality: consecutive addresses share a row).
    RowRankBankColChan,
    /// `Row:Column:Rank:Bank:Channel` — the paper's HMC IP-channel mapping
    /// (parallelism: consecutive lines stripe across banks).
    RowColRankBankChan,
}

/// A line index whose fields are split off its low end.
struct Fields(u64);

impl Fields {
    /// Takes the next field of `n` values (0 when `n <= 1`): by mask and
    /// shift when `n` is a power of two, which every shipped geometry's
    /// fields are, and by `%` and `/` otherwise (HMC over 6 channels has
    /// 3 per class).
    fn take(&mut self, n: u64) -> u64 {
        if n <= 1 {
            0
        } else if n.is_power_of_two() {
            let v = self.0 & (n - 1);
            self.0 >>= n.trailing_zeros();
            v
        } else {
            let v = self.0 % n;
            self.0 /= n;
            v
        }
    }
}

/// A concrete address mapping: scheme plus geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMapping {
    /// Field ordering.
    pub scheme: MappingScheme,
    /// Number of channels this mapping distributes over.
    pub channels: usize,
    /// Ranks per channel.
    pub ranks: usize,
    /// Banks per rank.
    pub banks: usize,
    /// Columns (cache lines) per row.
    pub cols_per_row: u64,
    /// Cache-line bytes (the mapping granule).
    pub line_bytes: u64,
}

impl AddressMapping {
    /// The paper's baseline mapping over `channels` channels.
    pub fn baseline(channels: usize) -> Self {
        Self {
            scheme: MappingScheme::RowRankBankColChan,
            channels,
            ranks: 1,
            banks: 8,
            cols_per_row: 32, // 32 lines × 128 B = 4 KiB row
            line_bytes: 128,
        }
    }

    /// The paper's HMC IP-channel mapping over `channels` channels.
    pub fn ip_parallel(channels: usize) -> Self {
        Self {
            scheme: MappingScheme::RowColRankBankChan,
            ..Self::baseline(channels)
        }
    }

    /// Decodes a byte address into DRAM coordinates.
    pub fn decode(&self, addr: Addr) -> DramLocation {
        let mut x = Fields(self.line_index(addr));
        // LSB → MSB: channel, then column, bank, rank (page-striped) or
        // bank, rank, column (line-striped), then row.
        let channel = x.take(self.channels as u64) as usize;
        let (col, bank, rank) = match self.scheme {
            MappingScheme::RowRankBankColChan => {
                let col = x.take(self.cols_per_row);
                let bank = x.take(self.banks as u64) as usize;
                (col, bank, x.take(self.ranks as u64) as usize)
            }
            MappingScheme::RowColRankBankChan => {
                let bank = x.take(self.banks as u64) as usize;
                let rank = x.take(self.ranks as u64) as usize;
                (x.take(self.cols_per_row), bank, rank)
            }
        };
        DramLocation {
            channel,
            rank,
            bank,
            row: x.0,
            col,
        }
    }

    /// The channel of `addr`, `decode(addr).channel` alone: both schemes
    /// put the channel in the lowest field.
    pub fn channel(&self, addr: Addr) -> usize {
        Fields(self.line_index(addr)).take(self.channels as u64) as usize
    }

    /// The index of `addr`'s line (the mapping granule).
    fn line_index(&self, addr: Addr) -> u64 {
        if self.line_bytes.is_power_of_two() {
            addr >> self.line_bytes.trailing_zeros()
        } else {
            addr / self.line_bytes
        }
    }

    /// Re-encodes DRAM coordinates back into a line-aligned byte address
    /// (inverse of [`AddressMapping::decode`]).
    pub fn encode(&self, loc: DramLocation) -> Addr {
        let mut x = loc.row;
        let mut put = |n: u64, v: u64| {
            if n > 1 {
                x = x * n + v;
            }
        };
        match self.scheme {
            MappingScheme::RowRankBankColChan => {
                put(self.ranks as u64, loc.rank as u64);
                put(self.banks as u64, loc.bank as u64);
                put(self.cols_per_row, loc.col);
                put(self.channels as u64, loc.channel as u64);
            }
            MappingScheme::RowColRankBankChan => {
                put(self.cols_per_row, loc.col);
                put(self.ranks as u64, loc.rank as u64);
                put(self.banks as u64, loc.bank as u64);
                put(self.channels as u64, loc.channel as u64);
            }
        }
        x * self.line_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_strides_stay_in_row() {
        // Consecutive lines in one channel should share a row (locality).
        let m = AddressMapping::baseline(1);
        let a = m.decode(0);
        let b = m.decode(128);
        assert_eq!(a.row, b.row);
        assert_eq!(a.bank, b.bank);
        assert_eq!(b.col, a.col + 1);
    }

    #[test]
    fn ip_mapping_stripes_banks() {
        // Consecutive lines should hit different banks (parallelism).
        let m = AddressMapping::ip_parallel(1);
        let a = m.decode(0);
        let b = m.decode(128);
        assert_eq!(a.row, b.row);
        assert_ne!(a.bank, b.bank);
    }

    #[test]
    fn channel_interleave_is_line_granular() {
        let m = AddressMapping::baseline(2);
        assert_eq!(m.decode(0).channel, 0);
        assert_eq!(m.decode(128).channel, 1);
        assert_eq!(m.decode(256).channel, 0);
    }

    #[test]
    fn decode_encode_roundtrip_samples() {
        for scheme in [
            MappingScheme::RowRankBankColChan,
            MappingScheme::RowColRankBankChan,
        ] {
            let m = AddressMapping {
                scheme,
                channels: 2,
                ranks: 2,
                banks: 8,
                cols_per_row: 32,
                line_bytes: 128,
            };
            for addr in (0..1u64 << 22).step_by(128 * 7) {
                let aligned = addr & !(128 - 1);
                assert_eq!(m.encode(m.decode(aligned)), aligned);
            }
        }
    }

    /// The division-only decode the shift path replaced.
    fn decode_by_division(m: &AddressMapping, addr: Addr) -> DramLocation {
        let mut x = addr / m.line_bytes;
        let mut take = |n: u64| -> u64 {
            if n <= 1 {
                return 0;
            }
            let v = x % n;
            x /= n;
            v
        };
        let channel = take(m.channels as u64) as usize;
        let (col, bank, rank) = match m.scheme {
            MappingScheme::RowRankBankColChan => {
                let col = take(m.cols_per_row);
                let bank = take(m.banks as u64) as usize;
                (col, bank, take(m.ranks as u64) as usize)
            }
            MappingScheme::RowColRankBankChan => {
                let bank = take(m.banks as u64) as usize;
                let rank = take(m.ranks as u64) as usize;
                (take(m.cols_per_row), bank, rank)
            }
        };
        DramLocation {
            channel,
            rank,
            bank,
            row: x,
            col,
        }
    }

    /// Shift-and-mask decoding equals division on random addresses, over
    /// geometries whose fields are powers of two, not, 1, or mixed; and
    /// `channel` equals the decoded channel.
    #[test]
    fn shift_decode_matches_division() {
        emerald_common::check::check("mapping_shift_vs_division", |rng| {
            let scheme = [
                MappingScheme::RowRankBankColChan,
                MappingScheme::RowColRankBankChan,
            ][rng.below(2) as usize];
            let line_bytes = [64, 128, 96][rng.below(3) as usize];
            let mut field = || [1, 2, 3, 4, 6, 8, 16, 32, 5][rng.below(9) as usize];
            let m = AddressMapping {
                scheme,
                channels: field() as usize,
                ranks: field() as usize,
                banks: field() as usize,
                cols_per_row: field(),
                line_bytes,
            };
            for _ in 0..64 {
                let addr = match rng.below(3) {
                    0 => rng.next_u64(),
                    1 => rng.below(1 << 32),
                    _ => rng.below(1 << 16),
                };
                let want = decode_by_division(&m, addr);
                assert_eq!(m.decode(addr), want, "{m:?} at {addr:#x}");
                assert_eq!(m.channel(addr), want.channel, "{m:?} at {addr:#x}");
            }
        });
    }

    #[test]
    fn single_channel_always_channel_zero() {
        let m = AddressMapping::baseline(1);
        for addr in (0..1u64 << 20).step_by(4096) {
            assert_eq!(m.decode(addr).channel, 0);
        }
    }
}
