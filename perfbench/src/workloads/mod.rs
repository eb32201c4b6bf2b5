//! The three workloads. Each generates its inputs from the seed, builds
//! the objects under test in `setup`, and makes one pass of calls into
//! the program's public API per `pass`, on the calling thread only.

mod chat;
mod fleet;
mod offline;
mod serving;

pub use chat::EngineChat;
pub use fleet::Fleet512;
pub use offline::OfflineSwa;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Fleet512,
    EngineChat,
    OfflineSwa,
}

impl Name {
    pub const ALL: [Name; 3] = [Name::Fleet512, Name::EngineChat, Name::OfflineSwa];

    pub fn as_str(self) -> &'static str {
        match self {
            Name::Fleet512 => "fleet_512",
            Name::EngineChat => "engine_chat",
            Name::OfflineSwa => "offline_swa",
        }
    }

    pub fn parse(s: &str) -> Result<Name, String> {
        Name::ALL
            .into_iter()
            .find(|n| n.as_str() == s)
            .ok_or_else(|| {
                format!("unknown workload `{s}` (expected fleet_512, engine_chat or offline_swa)")
            })
    }
}
