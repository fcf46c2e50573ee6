"""BGP error codes (RFC 4271 §4.5) and exceptions."""

import enum


class NotificationCode(enum.IntEnum):
    MESSAGE_HEADER_ERROR = 1
    OPEN_MESSAGE_ERROR = 2
    UPDATE_MESSAGE_ERROR = 3
    HOLD_TIMER_EXPIRED = 4
    FSM_ERROR = 5
    CEASE = 6


class HeaderSubcode(enum.IntEnum):
    CONNECTION_NOT_SYNCHRONIZED = 1
    BAD_MESSAGE_LENGTH = 2
    BAD_MESSAGE_TYPE = 3


class OpenSubcode(enum.IntEnum):
    UNSUPPORTED_VERSION = 1
    BAD_PEER_AS = 2
    BAD_BGP_IDENTIFIER = 3
    UNSUPPORTED_OPTIONAL_PARAMETER = 4
    UNACCEPTABLE_HOLD_TIME = 6


class UpdateSubcode(enum.IntEnum):
    MALFORMED_ATTRIBUTE_LIST = 1
    UNRECOGNIZED_WELLKNOWN_ATTRIBUTE = 2
    MISSING_WELLKNOWN_ATTRIBUTE = 3
    ATTRIBUTE_FLAGS_ERROR = 4
    ATTRIBUTE_LENGTH_ERROR = 5
    INVALID_ORIGIN_ATTRIBUTE = 6
    INVALID_NEXT_HOP_ATTRIBUTE = 8
    OPTIONAL_ATTRIBUTE_ERROR = 9
    INVALID_NETWORK_FIELD = 10
    MALFORMED_AS_PATH = 11


class BgpError(Exception):
    """A protocol error that maps to a NOTIFICATION message."""

    def __init__(self, code, subcode=0, data=b"", message=""):
        super().__init__(message or f"BGP error {code}/{subcode}")
        self.code = NotificationCode(code)
        self.subcode = int(subcode)
        self.data = data
