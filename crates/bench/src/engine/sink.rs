//! Streaming row sinks.
//!
//! The old harness collected every CSV line into a `Vec<String>` and
//! wrote the file at the end; the engine instead streams each row the
//! moment its canonical predecessor has been emitted, so partial results
//! survive interruption and memory stays flat on large grids. The file
//! sink flushes the header and every row as it writes them: a run killed
//! mid-grid leaves every row it released on disk.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};

/// A destination for the engine's ordered CSV stream.
pub trait RowSink {
    /// Called once before any row, with the CSV header.
    fn begin(&mut self, header: &str) -> std::io::Result<()>;
    /// Called once per row, in canonical grid order.
    fn row(&mut self, line: &str) -> std::io::Result<()>;
    /// Called after the last row; flush buffers here.
    fn finish(&mut self) -> std::io::Result<()>;
}

/// Streams rows into a CSV file, creating parent directories on `begin`.
pub struct CsvFileSink {
    path: PathBuf,
    writer: Option<BufWriter<File>>,
    rows: usize,
}

impl CsvFileSink {
    /// A sink that will create (or truncate) `path` when the run begins.
    pub fn new(path: impl Into<PathBuf>) -> Self {
        CsvFileSink {
            path: path.into(),
            writer: None,
            rows: 0,
        }
    }

    /// The destination path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Rows written so far (excluding the header).
    pub fn rows_written(&self) -> usize {
        self.rows
    }
}

impl RowSink for CsvFileSink {
    fn begin(&mut self, header: &str) -> std::io::Result<()> {
        if let Some(parent) = self.path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut w = BufWriter::new(File::create(&self.path)?);
        writeln!(w, "{header}")?;
        w.flush()?;
        self.writer = Some(w);
        Ok(())
    }

    fn row(&mut self, line: &str) -> std::io::Result<()> {
        let w = self.writer.as_mut().expect("row() before begin()");
        writeln!(w, "{line}")?;
        w.flush()?;
        self.rows += 1;
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        if let Some(mut w) = self.writer.take() {
            w.flush()?;
        }
        Ok(())
    }
}

/// Collects the byte-exact CSV document in memory (tests compare these
/// across thread counts).
#[derive(Default)]
pub struct StringSink {
    /// The accumulated CSV document, header first.
    pub csv: String,
}

impl StringSink {
    /// An empty in-memory sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl RowSink for StringSink {
    fn begin(&mut self, header: &str) -> std::io::Result<()> {
        self.csv.push_str(header);
        self.csv.push('\n');
        Ok(())
    }

    fn row(&mut self, line: &str) -> std::io::Result<()> {
        self.csv.push_str(line);
        self.csv.push('\n');
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Discards the stream (callers that only want the typed rows).
#[derive(Default)]
pub struct NullSink;

impl RowSink for NullSink {
    fn begin(&mut self, _header: &str) -> std::io::Result<()> {
        Ok(())
    }

    fn row(&mut self, _line: &str) -> std::io::Result<()> {
        Ok(())
    }

    fn finish(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_file_sink_streams_and_counts() {
        let dir = std::env::temp_dir().join("ckpt_engine_sink_test");
        let path = dir.join("nested").join("out.csv");
        let mut sink = CsvFileSink::new(&path);
        sink.begin("a,b").unwrap();
        sink.row("1,2").unwrap();
        sink.row("3,4").unwrap();
        sink.finish().unwrap();
        assert_eq!(sink.rows_written(), 2);
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n3,4\n");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn csv_file_sink_keeps_written_rows_without_finish() {
        // A run killed mid-grid never reaches `finish()`: the rows it
        // released must already be in the file.
        let dir = std::env::temp_dir().join("ckpt_engine_sink_unfinished");
        let path = dir.join("out.csv");
        let mut sink = CsvFileSink::new(&path);
        sink.begin("a,b").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n");
        sink.row("1,2").unwrap();
        sink.row("3,4").unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n3,4\n");
        drop(sink);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn string_sink_accumulates_document() {
        let mut sink = StringSink::new();
        sink.begin("h").unwrap();
        sink.row("r1").unwrap();
        sink.finish().unwrap();
        assert_eq!(sink.csv, "h\nr1\n");
    }
}
